(* The campaign front end:

     bench/main.exe [--out DIR] [CAMPAIGN ...]

   runs the named campaigns (every one if none is named) in a fixed
   order, prints their tables and PASS/FAIL claims, writes their CSV
   and JSON files under DIR, and exits 1 if any claim fails.  The
   deterministic campaigns (figures, ablations, robustness, service,
   BENCH_6) live in Ibr_harness.Campaign; the two that take wall-clock
   timings live here:

   - native: ns per operation of one worker domain running each Fig. 8
     panel's traffic under each of its schemes (the single-thread
     instruction-overhead component of Fig. 8), the empty_freq
     ablation on the same kind of run, and the sweep ablation;
   - trace-overhead: tracing must leave a virtual-time run
     bit-identical, and the wall clock of the two runs says what it
     costs the simulator. *)

module C = Ibr_harness.Campaign
module TC = Ibr_core.Tracker_common
module Rng = Ibr_runtime.Rng
module Monotonic = Ibr_runtime.Monotonic

(* One worker domain for 0.3 s on [Workload.spec_for ds], the figures'
   key range and 50/50 mix.  ns/op = 10^9 / throughput (ops/s), so it
   includes the run loop's own per-op cost. *)
let native_row ?tweak name scheme ds =
  let r =
    Option.get
      (C.run
         (C.point ~backend:C.Domains ~threads:1 ~horizon:300_000 ~seed:0xdead
            ?tweak scheme ds))
  in
  (name, 1e9 /. r.Ibr_harness.Stats.throughput)

(* Ablation: old-vs-new sweep cost.  One call = one full sweep over
   [sweep_block_count] retired blocks (snapshot build + per-block
   conflict test), so the printed ns/op is the amortized per-block
   sweep cost.  The retired list is sized for the oversubscribed
   regime the fix targets — Fig. 9 pins ~250 blocks per sweep there.
   The linear predicate rescans the reservation table per block
   (O(threads) each); the sorted snapshot pays one O(T log T) build
   then O(log T) per block — per-block cost stays near-flat in the
   thread count (the residue is the build amortized over the list). *)
let sweep_block_count = 256

(* ns per retired block of [sweep], called for at least 0.3 s. *)
let time_sweep sweep =
  let start = Monotonic.now_ns () in
  let rec go calls =
    ignore (Sys.opaque_identity (sweep ()));
    let ns = Monotonic.now_ns () - start in
    if ns < 300_000_000 then go (calls + 1)
    else float_of_int ns /. float_of_int (calls * sweep_block_count)
  in
  go 1

let sweep_rows () =
  let epoch_range = 10_000 in
  List.concat_map
    (fun threads ->
       let rng = Rng.create (0x5eeb + threads) in
       (* Interval reservations (TagIBR/2GEIBR family): ~3/4 of the
          threads hold a reservation at sweep time. *)
       let res = TC.Interval_res.create threads in
       for tid = 0 to threads - 1 do
         if Rng.int rng 4 < 3 then begin
           let lo = 1 + Rng.int rng epoch_range in
           Atomic.set res.TC.Interval_res.lower.(tid) lo;
           Atomic.set res.TC.Interval_res.upper.(tid) (lo + Rng.int rng 128)
         end
       done;
       (* Era reservations (HE): same density, one era per slot. *)
       let eras =
         Array.init (threads * 4) (fun _ ->
           if Rng.int rng 4 < 3 then 1 + Rng.int rng epoch_range else 0)
       in
       let blocks =
         Array.init sweep_block_count (fun id ->
           let b = Ibr_core.Block.make ~id id in
           let birth = 1 + Rng.int rng epoch_range in
           Ibr_core.Block.set_birth_epoch b birth;
           Ibr_core.Block.set_retire_epoch b (birth + Rng.int rng 64);
           b)
       in
       List.map
         (fun (form, kind, mk) ->
            ( Printf.sprintf "ablation:sweep:%s:%s:t=%d" form kind threads,
              time_sweep (fun () ->
                let conflict = mk () in
                Array.fold_left
                  (fun kept b -> if conflict b then kept + 1 else kept)
                  0 blocks) ))
         [ ("interval", "linear", fun () ->
               TC.Interval_res.conflict_with_snapshot res);
           ("interval", "sorted", fun () ->
               Ibr_core.Reclaimer.(
                 survives (intervals (TC.Interval_res.sweep_snapshot res))));
           ("era", "linear", fun () ->
               let reserved =
                 Array.to_list eras |> List.filter (fun e -> e <> 0) in
               fun b ->
                 List.exists
                   (fun e ->
                      Ibr_core.Block.birth_epoch b <= e
                      && e <= Ibr_core.Block.retire_epoch b)
                   reserved);
           ("era", "sorted", fun () ->
               Ibr_core.Reclaimer.(
                 survives
                   (intervals (TC.Sweep_snapshot.of_points ~none:0 eras)))) ])
    [ 8; 72; 100 ]

let native () =
  let figures =
    List.concat_map
      (fun (fig, ds) ->
         List.map
           (fun (e : Ibr_core.Registry.entry) ->
              native_row (Printf.sprintf "%s:%s:%s" fig ds e.name) e.name ds)
           (C.lineup ds))
      [ ("fig8a", "list"); ("fig8b", "hashmap"); ("fig8c", "nmtree");
        ("fig8d", "bonsai") ]
  in
  (* Ablation: empty_freq (k) on the same one-worker run. *)
  let empty_freq =
    List.map
      (fun k ->
         native_row
           ~tweak:(fun c -> { c with Ibr_core.Tracker_intf.empty_freq = k })
           (Printf.sprintf "ablation:empty-freq:k=%d" k) "2GEIBR" "hashmap")
      [ 1; 10; 30; 50 ]
  in
  let sweeps = sweep_rows () in
  { C.text =
      "== native per-op cost (one worker domain, figures' traffic; sweeps \
       per block; monotonic clock) ==\n"
      ^ C.table
          [ ("benchmark", -36, fst);
            ("ns/op", 14, fun (_, ns) -> Printf.sprintf "%.1f" ns) ]
          (figures @ empty_freq @ sweeps)
      ^ "\n";
    claims = [];
    files = [] }

(* The probes never call [Hooks.step], so a traced sim run must be
   identical to an untraced one, checked exactly.  The wall clock of
   each run per simulated op is what tracing and histograms cost the
   simulator; Domains refuse probes, so there is no native probe cost
   to time yet. *)
let trace_overhead () =
  let sim_run () =
    let start = Monotonic.now_ns () in
    let r =
      Option.get
        (C.run
           (C.point
              ~spec:
                { (Ibr_harness.Workload.spec_for "hashmap") with
                  key_range = 512 }
              ~cores:8 ~seed:0x7ace ~threads:8 ~horizon:60_000 "2GEIBR"
              "hashmap"))
    in
    (r, float_of_int (Monotonic.now_ns () - start) /. float_of_int r.ops)
  in
  let off, ns_off = sim_run () in
  Ibr_obs.Probe.start ~threads:10 ();
  Ibr_obs.Probe.enable_hist ();
  let on, ns_on = sim_run () in
  Ibr_obs.Probe.stop ();
  let open Ibr_harness.Stats in
  { C.text =
      Printf.sprintf
        "== ablation:trace-overhead ==\n\
         virtual: untraced ops=%d makespan=%d | traced ops=%d makespan=%d\n\
         wall:    untraced %.1f ns/op | tracing+hist enabled %.1f ns/op \
         (%+.1f%%), simulator host time per simulated op\n"
        off.ops off.makespan on.ops on.makespan ns_off ns_on
        ((ns_on -. ns_off) /. ns_off *. 100.0);
    claims =
      [ { C.claim = "tracing leaves the virtual-time run bit-identical";
          holds =
            off.ops = on.ops && off.makespan = on.makespan
            && off.throughput = on.throughput;
          detail = "" } ];
    files = [] }

let () =
  exit
    (C.main
       (C.all
        @ [ { C.name = "native"; run = native };
            { C.name = "trace-overhead"; run = trace_overhead } ])
       (List.tl (Array.to_list Sys.argv)))
