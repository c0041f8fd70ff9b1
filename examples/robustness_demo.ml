(* Robustness (§4.3.1, DESIGN.md §7) made visible.

   Act 1 — a thread stalls forever in the middle of an operation while
   the others keep working.  Under EBR the stalled reservation pins
   every block retired from then on: dead memory grows without bound.
   Under the IBR schemes (and HP/HE) the stalled thread pins only a
   bounded set; reclamation keeps pace.

   Act 2 — what reclamation safety is *for*: the same workload under
   the deliberately broken UnsafeFree scheme (free on retire), with
   the fault checker in counting mode: dangling reads happen and are
   counted.  Under every real scheme the count is zero.

   Act 3 — a thread *crashes* mid-operation (the continuation is
   abandoned, cleanups never run) and the ejection watchdog detects
   the silence and expires the dead reservation: EBR's dead memory
   stops growing the moment the ejection lands.

   Act 4 — allocator backpressure: the same crash against a capped
   heap.  2GEIBR's frozen interval pins only pre-crash blocks, fits
   under the cap, and finishes clean; EBR's one-sided reservation pins
   everything and runs the heap dry (`Alloc_exhausted`).

   Each act asserts its claim; the demo exits nonzero if any fails.

     dune exec examples/robustness_demo.exe
*)

open Ibr_core
open Ibr_runtime

let failures : string list ref = ref []

let check what ok =
  if not ok then failures := what :: !failures;
  Fmt.pr "   %s %s@." (if ok then "[ok]" else "[FAILED]") what

let churn_with_stalled_reader tracker_name =
  let entry = Registry.find_exn tracker_name in
  let (module T : Tracker_intf.TRACKER) = entry.tracker in
  let module L = Ibr_ds.Harris_list.Make (T) in
  let threads = 9 in
  let cfg =
    { (Tracker_intf.default_config ~threads ()) with
      epoch_freq = 2 * threads; empty_freq = 8 } in
  let t = L.create ~threads cfg in
  (* Prefill. *)
  let h0 = L.register t ~tid:0 in
  for k = 0 to 63 do ignore (L.insert h0 ~key:k ~value:k) done;
  let sched = Sched.create (Sched.test_config ~cores:8 ~seed:3 ()) in
  (* Thread 0: posts a reservation at the tracker level and "stalls"
     by returning without end_op — exactly the state a preempted
     thread is in, held for the rest of the run. *)
  ignore
    (Sched.spawn sched (fun tid ->
       let h = L.register t ~tid in
       let th = L.tracker_handle h in
       T.start_op th;
       ignore (T.read_root th (L.head t))));
  (* Eight workers churn. *)
  for i = 1 to 8 do
    ignore
      (Sched.spawn sched (fun tid ->
         let h = L.register t ~tid in
         let rng = Rng.stream ~seed:77 ~index:i in
         for _ = 1 to 1500 do
           let k = Rng.int rng 64 in
           if Rng.bool rng then ignore (L.insert h ~key:k ~value:k)
           else ignore (L.remove h ~key:k)
         done))
  done;
  Sched.run sched;
  let st = L.allocator_stats t in
  (st.allocated, st.live, st.freed)

let act1 () =
  Fmt.pr "== Act 1: one thread stalls mid-operation forever ==@.";
  Fmt.pr "   (8 workers churn a 64-key list; list itself holds ~48 nodes)@.@.";
  Fmt.pr "   %-12s %10s %10s %12s@." "scheme" "allocated" "freed"
    "dead+live";
  List.iter
    (fun name ->
       let allocated, live, freed = churn_with_stalled_reader name in
       Fmt.pr "   %-12s %10d %10d %12d%s@." name allocated freed live
         (if name = "EBR" then "   <- grows with run length" else ""))
    [ "EBR"; "HP"; "HE"; "TagIBR"; "2GEIBR" ];
  Fmt.pr "@."

let act2 () =
  Fmt.pr "== Act 2: why deferred reclamation matters at all ==@.";
  let run name =
    let entry = Registry.find_exn name in
    let (module T : Tracker_intf.TRACKER) = entry.tracker in
    let module L = Ibr_ds.Harris_list.Make (T) in
    let threads = 8 in
    let cfg =
      { (Tracker_intf.default_config ~threads ()) with
        reuse = false; epoch_freq = 2; empty_freq = 2 } in
    let t = L.create ~threads cfg in
    let sched =
      Sched.create
        { (Sched.test_config ~cores:4 ~seed:13 ()) with
          stall_prob = 0.05; stall_len = 2_000; quantum = 100 } in
    let (), faults =
      Fault.with_counting (fun () ->
        for i = 0 to threads - 1 do
          ignore
            (Sched.spawn sched (fun tid ->
               let h = L.register t ~tid in
               let rng = Rng.stream ~seed:1 ~index:i in
               for _ = 1 to 400 do
                 let k = Rng.int rng 16 in
                 if Rng.bool rng then ignore (L.insert h ~key:k ~value:k)
                 else ignore (L.remove h ~key:k)
               done))
        done;
        Sched.run sched)
    in
    Fmt.pr "   %-12s dangling-access faults: %d@." name faults
  in
  List.iter run [ "UnsafeFree"; "EBR"; "2GEIBR"; "HP" ];
  Fmt.pr
    "@.   UnsafeFree frees at retire — readers observe garbage; every real@.";
  Fmt.pr "   scheme defers until reservations allow, and the count is 0.@."

(* Acts 3/4 share one rig: a 64-key list, one worker that crashes
   mid-operation after [crash_at] completed ops (start_op + guarded
   read, then [Sched.crash_self] — end_op never runs), and eight
   workers that churn.  Early crash keeps the pre-crash block
   population — all a frozen interval can pin — small. *)
let crashed_churn ?capacity ?(watchdog = false) tracker_name =
  let entry = Registry.find_exn tracker_name in
  let (module T : Tracker_intf.TRACKER) = entry.tracker in
  let module L = Ibr_ds.Harris_list.Make (T) in
  let threads = 9 and crash_at = 20 in
  let cfg =
    { (Tracker_intf.default_config ~threads ()) with
      epoch_freq = 2 * threads; empty_freq = 8 } in
  let t = L.create ~threads cfg in
  let h0 = L.register t ~tid:0 in
  for k = 0 to 63 do ignore (L.insert h0 ~key:k ~value:k) done;
  (match capacity with
   | Some slack ->
     L.set_capacity t (Some ((L.allocator_stats t).live + slack))
   | None -> ());
  let sched = Sched.create (Sched.test_config ~cores:8 ~seed:3 ()) in
  let exec = Ibr_harness.Run_engine.sim_exec ~sched ~horizon:600_000 in
  let ops = Array.make threads 0 in
  let work h rng tid n =
    for _ = 1 to n do
      let k = Rng.int rng 64 in
      (try
         if Rng.bool rng then ignore (L.insert h ~key:k ~value:k)
         else ignore (L.remove h ~key:k)
       with Alloc.Exhausted | Fault.Memory_fault (Fault.Alloc_exhausted, _)
         -> ());
      ops.(tid) <- ops.(tid) + 1
    done
  in
  (* The victim: a few real ops, then death inside an operation. *)
  ignore
    (Sched.spawn sched (fun tid ->
       let h = L.register t ~tid in
       let rng = Rng.stream ~seed:77 ~index:0 in
       work h rng tid crash_at;
       let th = L.tracker_handle h in
       T.start_op th;
       ignore (T.read_root th (L.head t));
       Sched.crash_self ()));
  (* Workers churn until the horizon cuts the run (so the watchdog
     never mistakes a *finished* thread for a dead one). *)
  for i = 1 to 8 do
    ignore
      (Sched.spawn sched (fun tid ->
         let h = L.register t ~tid in
         work h (Rng.stream ~seed:77 ~index:i) tid max_int))
  done;
  let dog =
    if not watchdog then None
    else
      (* Period spans several scheduling quanta so every live thread
         provably gets core time between checks, with headroom for the
         longest legitimate gap between completed ops — a sweep burst
         plus a magazine depot flush, charged to the freeing thread
         (DESIGN.md §7c, §9b). *)
      Some
        (Ibr_harness.Watchdog.spawn ~exec ~period:500 ~grace:3 ~threads
           ~progress:(fun tid -> ops.(tid))
           ~eject:(fun tid -> L.eject t ~tid)
           ())
  in
  exec.launch ();
  let st = L.allocator_stats t in
  (st, Option.fold ~none:0 ~some:Ibr_harness.Watchdog.ejections dog)

let act3 () =
  Fmt.pr "== Act 3: a crashed thread, with and without the watchdog ==@.";
  Fmt.pr "   (the victim dies between start_op and end_op; its fiber is@.";
  Fmt.pr "    abandoned, so nothing ever releases its reservation)@.@.";
  let report name (st : Alloc.stats) ejections =
    Fmt.pr "   %-22s %10s %10d %12d %5d@." name "" st.freed st.live ejections
  in
  Fmt.pr "   %-22s %10s %10s %12s %5s@." "scheme" "" "freed" "dead+live"
    "ejct";
  let ebr, _ = crashed_churn "EBR" in
  report "EBR (crash)" ebr 0;
  let ebr_dog, ejections = crashed_churn ~watchdog:true "EBR" in
  report "EBR (crash+watchdog)" ebr_dog ejections;
  let ibr, _ = crashed_churn "2GEIBR" in
  report "2GEIBR (crash)" ibr 0;
  Fmt.pr "@.";
  check "watchdog ejected exactly the dead thread" (ejections = 1);
  check "ejection shrinks EBR's dead memory" (ebr_dog.live < ebr.live);
  check "2GEIBR bounded even without a watchdog" (ibr.live < ebr.live);
  Fmt.pr "@."

let act4 () =
  Fmt.pr "== Act 4: the same crash against a capped heap ==@.";
  Fmt.pr "   (capacity = post-prefill live + 300; alloc sweeps, backs@.";
  Fmt.pr "    off, and only then reports Alloc_exhausted)@.@.";
  let run name =
    let (st : Alloc.stats), _ =
      let r, _ =
        Fault.with_counting (fun () -> crashed_churn ~capacity:300 name) in
      r
    in
    Fmt.pr "   %-12s oom_events: %3d   pressure retries: %4d   peak: %d@."
      name st.oom_events st.pressure_retries st.peak_footprint;
    st
  in
  let ebr = run "EBR" in
  let ibr = run "2GEIBR" in
  Fmt.pr "@.";
  check "EBR runs the capped heap dry" (ebr.oom_events > 0);
  check "2GEIBR finishes with zero oom events" (ibr.oom_events = 0);
  Fmt.pr "@."

let () =
  act1 ();
  act2 ();
  act3 ();
  act4 ();
  match !failures with
  | [] -> ()
  | fs ->
    Fmt.pr "@.%d robustness claim(s) FAILED:@." (List.length fs);
    List.iter (fun f -> Fmt.pr "  - %s@." f) fs;
    exit 1
