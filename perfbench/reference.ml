(* A fixed reference load that gauges how fast the machine runs right
   now.

   On a small shared machine the Domains legs' wall-clock figures drift
   together over seconds, by a quarter or more, as other tenants take
   and give back the CPUs and their caches.  Each round of legs is
   therefore bracketed by short runs of this load, and each leg's
   figures are scaled by the rate measured around it.

   The load uses the standard library only, never the ibr libraries,
   so that no change to the program under test moves it.  It does what
   the benchmark's workers do, on as many domains: it inserts and
   removes random keys of one shared 16384-slot set with
   compare-and-set, allocating a block per insert, so it feels the
   same cache-line traffic between cores and the same minor
   collections. *)

open Ibr_runtime

let keys = 16384
let batch = 256

(* The rate, in operations per second summed over the domains, of the
   load run on [domains] domains for [seconds]. *)
let run ~domains ~seconds =
  let span = int_of_float (seconds *. 1e9) in
  let slots =
    Array.init keys (fun k -> Atomic.make (if k land 3 = 0 then None else Some k))
  in
  let worker seed () =
    let x = ref seed and n = ref 0 in
    let t0 = Monotonic.now_ns () in
    let deadline = t0 + span in
    let t = ref t0 in
    while !t < deadline do
      for _ = 1 to batch do
        x := ((!x * 1103515245) + 12345) land 0x3fffffff;
        let k = (!x lsr 8) land (keys - 1) in
        let s = slots.(k) in
        let v = Atomic.get s in
        if !x land 0x80 = 0 then begin
          if v = None then ignore (Atomic.compare_and_set s v (Some k))
        end
        else if v <> None then ignore (Atomic.compare_and_set s v None)
      done;
      n := !n + batch;
      t := Monotonic.now_ns ()
    done;
    float_of_int !n *. 1e9 /. float_of_int (!t - t0)
  in
  List.init domains (fun d -> Domain.spawn (worker (d + 1)))
  |> List.fold_left (fun acc d -> acc +. Domain.join d) 0.0
