(* Reclamation safety under adversarial schedules (Theorem 1,
   empirically): across many seeds, with stall injection, allocator
   reuse enabled, and single-step interleaving granularity, every
   correct scheme must complete with zero memory faults and intact
   structural invariants.

   Checker efficacy: the deliberately broken [Unsafe_free] scheme must
   trip the checker under the same schedules — otherwise a silent
   checker would vacuously "pass" everything. *)

open Ibr_core
open Ibr_runtime

let run_adversarial (module T : Tracker_intf.TRACKER) ~seed ~reuse =
  let module L = Ibr_ds.Harris_list.Make (T) in
  let threads = 10 in
  let cfg =
    { (Tracker_intf.default_config ~threads ()) with
      reuse; epoch_freq = 2; empty_freq = 4 } in
  let t = L.create ~threads cfg in
  let sched =
    Sched.create
      { (Sched.test_config ~cores:4 ~seed ()) with
        stall_prob = 0.05; stall_len = 3_000; quantum = 100 } in
  for i = 0 to threads - 1 do
    ignore
      (Sched.spawn sched (fun tid ->
         let h = L.register t ~tid in
         let rng = Rng.stream ~seed:(seed * 31 + i) ~index:i in
         for _ = 1 to 250 do
           let k = Rng.int rng 16 in
           match Rng.int rng 3 with
           | 0 -> ignore (L.insert h ~key:k ~value:k)
           | 1 -> ignore (L.remove h ~key:k)
           | _ -> ignore (L.contains h ~key:k)
         done))
  done;
  Sched.run sched;
  L.check_invariants t

let test_scheme_safe (e : Registry.entry) () =
  Fault.set_mode Fault.Raise;
  for seed = 1 to 25 do
    (* reuse on: exercises reincarnation ABA; reuse off: precise UAF. *)
    run_adversarial e.tracker ~seed ~reuse:true;
    run_adversarial e.tracker ~seed ~reuse:false
  done

let test_unsafe_oracle_faults () =
  (* The broken scheme must produce at least one fault somewhere in
     the same seed range — proof the checker has teeth. *)
  let faults = ref 0 in
  for seed = 1 to 25 do
    match
      Fault.with_counting (fun () ->
        run_adversarial Registry.unsafe_free.tracker ~seed ~reuse:false)
    with
    | (), n -> faults := !faults + n
    | exception _ -> incr faults
  done;
  Alcotest.(check bool)
    (Printf.sprintf "UnsafeFree trips the checker (%d faults)" !faults)
    true (!faults > 0)

(* Safety on the NM tree, whose helping protocol is the subtlest. *)
let run_adversarial_tree (module T : Tracker_intf.TRACKER) ~seed =
  let module D = Ibr_ds.Nm_tree.Make (T) in
  let dm = Option.get D.map in
  let threads = 10 in
  let cfg =
    { (Tracker_intf.default_config ~threads ()) with
      reuse = false; epoch_freq = 2; empty_freq = 4 } in
  let t = D.create ~threads cfg in
  let sched =
    Sched.create
      { (Sched.test_config ~cores:4 ~seed ()) with
        stall_prob = 0.05; stall_len = 3_000; quantum = 100 } in
  for i = 0 to threads - 1 do
    ignore
      (Sched.spawn sched (fun tid ->
         let h = D.register t ~tid in
         let rng = Rng.stream ~seed:(seed * 37 + i) ~index:i in
         for _ = 1 to 200 do
           let k = Rng.int rng 20 in
           match Rng.int rng 3 with
           | 0 -> ignore (dm.insert h ~key:k ~value:k)
           | 1 -> ignore (dm.remove h ~key:k)
           | _ -> ignore (dm.contains h ~key:k)
         done))
  done;
  Sched.run sched;
  D.check_invariants t

let test_tree_safe (e : Registry.entry) () =
  Fault.set_mode Fault.Raise;
  for seed = 1 to 15 do
    run_adversarial_tree e.tracker ~seed
  done

(* A stalled reader must never observe a fault even while the rest of
   the system reclaims aggressively around it. *)
let test_stalled_reader_never_faults (e : Registry.entry) () =
  let (module T : Tracker_intf.TRACKER) = e.tracker in
  let module L = Ibr_ds.Harris_list.Make (T) in
  Fault.set_mode Fault.Raise;
  let threads = 6 in
  let cfg =
    { (Tracker_intf.default_config ~threads ()) with
      reuse = true; epoch_freq = 2; empty_freq = 2 } in
  let t = L.create ~threads cfg in
  let sched = Sched.create (Sched.test_config ~cores:2 ~seed:3 ()) in
  (* Thread 0 is a reader that will be starved of cpu by the stall
     API mid-run; its in-flight traversal state must stay valid. *)
  for i = 0 to threads - 1 do
    ignore
      (Sched.spawn sched (fun tid ->
         let h = L.register t ~tid in
         let rng = Rng.stream ~seed:(100 + i) ~index:i in
         for _ = 1 to 300 do
           let k = Rng.int rng 12 in
           if tid = 0 then ignore (L.contains h ~key:k)
           else if Rng.bool rng then ignore (L.insert h ~key:k ~value:k)
           else ignore (L.remove h ~key:k)
         done))
  done;
  Sched.run sched;
  L.check_invariants t

(* Safety on the persistent Bonsai tree — the pairing POIBR exists
   for (POIBR on a mutable-pointer structure would be illegal and is
   excluded by the compatibility predicate). *)
let run_adversarial_bonsai (module T : Tracker_intf.TRACKER) ~seed =
  let module D = Ibr_ds.Bonsai_tree.Make (T) in
  let dm = Option.get D.map in
  let threads = 8 in
  let cfg =
    { (Tracker_intf.default_config ~threads ()) with
      reuse = false; epoch_freq = 2; empty_freq = 4 } in
  let t = D.create ~threads cfg in
  let sched =
    Sched.create
      { (Sched.test_config ~cores:4 ~seed ()) with
        stall_prob = 0.05; stall_len = 3_000; quantum = 100 } in
  for i = 0 to threads - 1 do
    ignore
      (Sched.spawn sched (fun tid ->
         let h = D.register t ~tid in
         let rng = Rng.stream ~seed:(seed * 41 + i) ~index:i in
         for _ = 1 to 150 do
           let k = Rng.int rng 20 in
           match Rng.int rng 3 with
           | 0 -> ignore (dm.insert h ~key:k ~value:k)
           | 1 -> ignore (dm.remove h ~key:k)
           | _ -> ignore (dm.contains h ~key:k)
         done))
  done;
  Sched.run sched;
  D.check_invariants t

let test_bonsai_safe (e : Registry.entry) () =
  Fault.set_mode Fault.Raise;
  for seed = 1 to 10 do
    run_adversarial_bonsai e.tracker ~seed
  done

(* Range scans on the list racing removes: a scan that meets a
   deleted node must not follow its frozen next pointer, whose target
   may have been unlinked, retired and freed since the scan protected
   it.  Eight keys, 16 threads on 2 cores and a sweep on every
   retirement put deleted nodes in front of scans; a scan that
   followed the frozen pointer faulted under HP at seeds 4, 6, 7 and
   8. *)
let test_list_scans_safe (e : Registry.entry) () =
  Fault.set_mode Fault.Raise;
  let threads = 16 in
  let spec =
    { (Ibr_harness.Workload.spec_for ~mix:Ibr_harness.Workload.profile_e
         "list")
      with key_range = 8 }
  in
  for seed = 1 to 10 do
    let c =
      Ibr_harness.Runner_sim.default_config ~threads ~horizon:300_000
        ~cores:2 ~seed ~spec ()
    in
    let tracker_cfg =
      { c.tracker_cfg with epoch_freq = threads; empty_freq = 1 } in
    match
      Ibr_harness.Runner_sim.run_named ~tracker_name:e.name ~ds_name:"list"
        { c with tracker_cfg }
    with
    | Some r ->
      Alcotest.(check bool) (Printf.sprintf "seed %d ran" seed) true (r.ops > 0)
    | None -> Alcotest.fail "the registry refuses this pairing"
  done

let mutable_ok (e : Registry.entry) =
  let (module T : Tracker_intf.TRACKER) = e.tracker in
  T.props.mutable_pointers

let bonsai_ok (e : Registry.entry) =
  let (module T : Tracker_intf.TRACKER) = e.tracker in
  not T.props.bounded_slots

let suite =
  List.filter_map
    (fun (e : Registry.entry) ->
       if mutable_ok e then
         Some
           (Alcotest.test_case ("list safety: " ^ e.name) `Slow
              (test_scheme_safe e))
       else None)
    Registry.all
  @ List.filter_map
      (fun (e : Registry.entry) ->
         if mutable_ok e then
           Some
             (Alcotest.test_case ("nm-tree safety: " ^ e.name) `Slow
                (test_tree_safe e))
         else None)
      Registry.all
  @ List.filter_map
      (fun (e : Registry.entry) ->
         if bonsai_ok e then
           Some
             (Alcotest.test_case ("bonsai safety: " ^ e.name) `Slow
                (test_bonsai_safe e))
         else None)
      Registry.all
  @ List.filter_map
      (fun (e : Registry.entry) ->
         if mutable_ok e then
           Some
             (Alcotest.test_case ("list scan safety: " ^ e.name) `Slow
                (test_list_scans_safe e))
         else None)
      Registry.all
  @ List.filter_map
      (fun (e : Registry.entry) ->
         if mutable_ok e then
           Some
             (Alcotest.test_case ("stalled reader: " ^ e.name) `Quick
                (test_stalled_reader_never_faults e))
         else None)
      Registry.all
  @ [ Alcotest.test_case "checker efficacy (UnsafeFree faults)" `Slow
        test_unsafe_oracle_faults ]
