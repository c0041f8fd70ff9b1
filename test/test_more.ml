(* Additional coverage: the headline Fig. 9 shape at test scale,
   hash-map structure specifics, Bonsai balance under qcheck op
   sequences, the op wrapper's restart accounting, and assorted
   small-surface behaviours. *)

open Ibr_core
open Ibr_runtime

(* --- the robustness headline, pinned at test scale ----------------- *)

(* Oversubscribed machine with stall injection: EBR's retired-but-
   unreclaimed population must exceed 2GEIBR's by a clear factor, and
   HP must stay near-flat.  This is Fig. 9's claim in miniature. *)
let test_fig9_shape () =
  let run tracker_name =
    let spec =
      { (Ibr_harness.Workload.spec_for "hashmap") with key_range = 1024 } in
    let cfg =
      Ibr_harness.Runner_sim.default_config ~threads:24 ~horizon:400_000
        ~cores:8 ~seed:5 ~spec ()
    in
    let cfg =
      { cfg with
        sched =
          { cfg.sched with stall_prob = 0.03; stall_len = 150_000 } }
    in
    (Option.get
       (Ibr_harness.Runner_sim.run_named ~tracker_name ~ds_name:"hashmap"
          cfg)).avg_unreclaimed
  in
  let ebr = run "EBR" and ibr = run "2GEIBR" and hp = run "HP" in
  Alcotest.(check bool)
    (Printf.sprintf "EBR (%.0f) > 1.5x IBR (%.0f) when oversubscribed" ebr ibr)
    true
    (ebr > 1.5 *. ibr);
  Alcotest.(check bool)
    (Printf.sprintf "IBR (%.0f) bounded well above HP (%.1f)" ibr hp)
    true
    (hp < 50.0 && ibr < ebr)

(* Throughput ordering at test scale (Fig. 8's claim in miniature). *)
let test_fig8_shape () =
  let run tracker_name =
    let spec = Ibr_harness.Workload.spec_for "hashmap" in
    let cfg =
      Ibr_harness.Runner_sim.default_config ~threads:8 ~horizon:120_000
        ~cores:8 ~seed:9 ~spec ()
    in
    (Option.get
       (Ibr_harness.Runner_sim.run_named ~tracker_name ~ds_name:"hashmap"
          cfg)).throughput
  in
  let nomm = run "NoMM" and ebr = run "EBR" and ibr = run "2GEIBR"
  and he = run "HE" and hp = run "HP" in
  Alcotest.(check bool) "NoMM >= EBR" true (nomm >= ebr);
  Alcotest.(check bool) "EBR >= 2GEIBR" true (ebr >= ibr);
  Alcotest.(check bool) "2GEIBR > 2x HE" true (ibr > 2.0 *. he);
  Alcotest.(check bool) "HE >= HP" true (he >= hp)

(* --- hash map specifics -------------------------------------------- *)

module HM = Ibr_ds.Michael_hashmap.Make (Ebr)

let hm_ops = Option.get HM.map

let hm_cfg = { (Tracker_intf.default_config ()) with reuse = false }

let test_hashmap_bucket_validation () =
  Alcotest.check_raises "non-power-of-two rejected"
    (Invalid_argument "Michael_hashmap.create: buckets must be a power of two")
    (fun () -> ignore (HM.create_sized ~buckets:48 ~threads:1 hm_cfg))

let test_hashmap_tiny_table () =
  (* One bucket: the map degenerates to a list and must still work. *)
  let t = HM.create_sized ~buckets:1 ~threads:1 hm_cfg in
  let h = HM.register t ~tid:0 in
  for k = 0 to 99 do
    Alcotest.(check bool) "insert" true (hm_ops.insert h ~key:k ~value:(k * 2))
  done;
  for k = 0 to 99 do
    Alcotest.(check (option int)) "get" (Some (k * 2)) (hm_ops.get h ~key:k)
  done;
  Alcotest.(check int) "size" 100 (List.length (hm_ops.to_sorted_list t));
  HM.check_invariants t

let test_hashmap_spread () =
  (* Sequential keys must not all land in one bucket. *)
  let t = HM.create_sized ~buckets:64 ~threads:1 hm_cfg in
  let h = HM.register t ~tid:0 in
  for k = 0 to 255 do ignore (hm_ops.insert h ~key:k ~value:k) done;
  (* Count non-empty buckets through the dump (indirectly): the
     longest chain should be far below 256. *)
  let dump = hm_ops.to_sorted_list t in
  Alcotest.(check int) "all present" 256 (List.length dump)

let test_hashmap_negative_like_keys () =
  (* Large keys exercise the hash's bit mixing. *)
  let t = HM.create_sized ~buckets:16 ~threads:1 hm_cfg in
  let h = HM.register t ~tid:0 in
  let keys = [ 0; 1; max_int / 2; max_int - 1; 123456789 ] in
  List.iter (fun k ->
    Alcotest.(check bool) "insert big key" true (hm_ops.insert h ~key:k ~value:k))
    keys;
  List.iter (fun k ->
    Alcotest.(check bool) "find big key" true (hm_ops.contains h ~key:k))
    keys

(* --- reservation-slot budget ---------------------------------------- *)

(* A scheme with per-pointer reservations gets [cfg.slots] slots per
   thread; a structure that protects more pointers at once must be
   refused at creation, not fail mid-operation with an out-of-bounds
   slot index.  Every rideable the registry pairs with HP or HE is
   refused one slot short of its [slots_needed] and runs each of its
   operations at exactly [slots_needed]. *)
let slot_budget_pairs =
  List.concat_map
    (fun (m : Ibr_ds.Ds_registry.maker) ->
       List.filter_map
         (fun (e : Registry.entry) ->
            if Ibr_ds.Ds_registry.compatible m e.tracker then Some (m, e)
            else None)
         [ Registry.hp; Registry.he ])
    Ibr_ds.Ds_registry.all

let test_slot_budget_refused () =
  List.iter
    (fun ((m : Ibr_ds.Ds_registry.maker), (e : Registry.entry)) ->
       let (module S : Ibr_ds.Ds_intf.RIDEABLE) = m.instantiate e.tracker in
       let slots = S.slots_needed - 1 in
       Alcotest.check_raises
         (Printf.sprintf "%s/%s with %d slots" m.ds_name e.name slots)
         (Invalid_argument
            (Printf.sprintf
               "%s under %s needs %d reservation slots per thread, but the \
                config has slots = %d"
               S.name e.name S.slots_needed slots))
         (fun () -> ignore (S.create ~threads:1 { hm_cfg with slots })))
    slot_budget_pairs

let test_slot_budget_exact () =
  List.iter
    (fun ((m : Ibr_ds.Ds_registry.maker), (e : Registry.entry)) ->
       let (module S : Ibr_ds.Ds_intf.RIDEABLE) = m.instantiate e.tracker in
       let what = Printf.sprintf "%s/%s" m.ds_name e.name in
       let t = S.create ~threads:1 { hm_cfg with slots = S.slots_needed } in
       let h = S.register t ~tid:0 in
       Option.iter
         (fun (ops : _ Ibr_ds.Ds_intf.map_ops) ->
            for k = 0 to 63 do ignore (ops.insert h ~key:k ~value:k) done;
            for k = 0 to 63 do
              if k mod 2 = 0 then ignore (ops.remove h ~key:k)
            done;
            for k = 0 to 63 do
              Alcotest.(check bool) (what ^ " membership") (k mod 2 = 1)
                (ops.contains h ~key:k)
            done)
         S.map;
       Option.iter
         (fun (r : _ Ibr_ds.Ds_intf.range_ops) ->
            Alcotest.(check int) (what ^ " scan") 32
              (List.length (r.range h ~lo:0 ~hi:63)))
         S.range;
       Option.iter
         (fun (b : _ Ibr_ds.Ds_intf.bulk_ops) ->
            Alcotest.(check bool) (what ^ " migrate") true (b.migrate h))
         S.bulk;
       Option.iter
         (fun (q : _ Ibr_ds.Ds_intf.queue_ops) ->
            for v = 0 to 63 do q.enqueue h v done;
            let first = if q.order = Ibr_ds.Ds_intf.Fifo then 0 else 63 in
            Alcotest.(check (option int)) (what ^ " peek") (Some first)
              (q.peek h);
            Alcotest.(check (option int)) (what ^ " dequeue") (Some first)
              (q.dequeue h))
         S.queue;
       S.check_invariants t)
    slot_budget_pairs

let test_slots_validated () =
  Alcotest.check_raises "slots = 0"
    (Invalid_argument "Tracker config: slots must be >= 1")
    (fun () -> ignore (Ebr.create ~threads:1 { hm_cfg with slots = 0 }))

(* --- Bonsai balance under arbitrary op sequences -------------------- *)

let qcheck_bonsai_balanced =
  QCheck.Test.make ~name:"bonsai stays weight-balanced" ~count:40
    QCheck.(make Gen.(list_size (int_bound 300) (pair bool (int_bound 127))))
    (fun ops ->
       let module B = Ibr_ds.Bonsai_tree.Make (Po_ibr) in
       let bm = Option.get B.map in
       let t =
         B.create ~threads:1
           { (Tracker_intf.default_config ()) with reuse = false } in
       let h = B.register t ~tid:0 in
       List.iter
         (fun (ins, k) ->
            if ins then ignore (bm.insert h ~key:k ~value:k)
            else ignore (bm.remove h ~key:k))
         ops;
       B.check_invariants t;
       true)

(* Bonsai speculative allocations are reclaimed on CAS failure: after
   a contended run the allocator must not leak unpublished nodes. *)
let test_bonsai_speculation_reclaimed () =
  let module B = Ibr_ds.Bonsai_tree.Make (Ebr) in
  let bm = Option.get B.map in
  let threads = 6 in
  let cfg =
    { (Tracker_intf.default_config ~threads ()) with
      reuse = false; epoch_freq = 2; empty_freq = 4 } in
  let t = B.create ~threads cfg in
  let sched = Sched.create (Sched.test_config ~cores:4 ~seed:3 ()) in
  for i = 0 to threads - 1 do
    ignore
      (Sched.spawn sched (fun tid ->
         let h = B.register t ~tid in
         let rng = Rng.stream ~seed:(60 + i) ~index:i in
         for _ = 1 to 200 do
           let k = Rng.int rng 32 in
           if Rng.bool rng then ignore (bm.insert h ~key:k ~value:k)
           else ignore (bm.remove h ~key:k)
         done))
  done;
  Sched.run sched;
  (* Sweep all handles' leftovers. *)
  let h = B.register t ~tid:0 in
  B.force_empty h;
  let s = B.allocator_stats t in
  let reachable = List.length (bm.to_sorted_list t) in
  (* live = reachable + retired-on-other-handles' lists; the latter is
     bounded by retire lists, not by total allocations. *)
  Alcotest.(check bool)
    (Printf.sprintf "no mass leak: live=%d reachable=%d alloc=%d" s.live
       reachable s.allocated)
    true
    (s.live < reachable + 2000 && s.allocated > 1000)

(* --- the op wrapper ------------------------------------------------- *)

(* Counted through the callbacks: every call of [f] after the first is
   a restart, every [start_op] after the first a reservation refresh. *)
let test_with_op_restart_accounting () =
  let starts = ref 0 and ends = ref 0 in
  let tries = ref 0 and completed = ref 0 in
  let bound = Ibr_ds.Ds_common.max_cas_failures in
  let restarts = (2 * bound) + 1 in
  let result =
    Ibr_ds.Ds_common.with_op
      ~start_op:(fun () -> incr starts)
      ~end_op:(fun () -> incr ends)
      ~on_neutralize:(fun () -> ())
      (fun () ->
         incr tries;
         if !tries <= restarts then raise Ibr_ds.Ds_common.Restart
         else begin
           incr completed;
           "done"
         end)
  in
  Alcotest.(check string) "result" "done" result;
  Alcotest.(check int) "restarts" restarts (!tries - 1);
  (* 2 * bound + 1 failures: refreshes after the bound-th and the
     (2 * bound)-th. *)
  Alcotest.(check int) "reservation refreshes" 2 (!starts - 1);
  Alcotest.(check int) "balanced start/end" !starts !ends;
  Alcotest.(check int) "ops counted" 1 !completed

let test_with_op_exception_safe () =
  let ends = ref 0 in
  (try
     Ibr_ds.Ds_common.with_op
       ~start_op:(fun () -> ())
       ~end_op:(fun () -> incr ends)
       ~on_neutralize:(fun () -> ())
       (fun () -> failwith "inner")
   with Failure _ -> ());
  Alcotest.(check int) "end_op ran on exception" 1 !ends

(* --- assorted small surfaces --------------------------------------- *)

let test_cost_pp_and_fence () =
  let c = Ibr_runtime.Cost.with_fence Ibr_runtime.Cost.default 99 in
  Alcotest.(check int) "fence overridden" 99 c.fence;
  let s = Fmt.str "%a" Ibr_runtime.Cost.pp c in
  Alcotest.(check bool) "pp mentions fence" true
    (Astring_contains.contains s "fence=99")

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Ibr_harness.Chart.sparkline []);
  let s = Ibr_harness.Chart.sparkline [ 0.0; 1.0 ] in
  Alcotest.(check bool) "two glyphs" true (String.length s > 0)

let test_run_threads_helper () =
  let hits = Atomic.make 0 in
  let t =
    Sched.run_threads ~cfg:(Sched.test_config ~cores:2 ()) ~n:5
      (fun ~tid:_ ~index:_ ->
         Hooks.step 3;
         Atomic.incr hits)
  in
  Alcotest.(check int) "all bodies ran" 5 (Atomic.get hits);
  Alcotest.(check bool) "makespan positive" true (Sched.makespan t > 0)

let test_registry_oracles () =
  Alcotest.(check int) "five oracles" 5 (List.length Registry.oracles);
  Alcotest.(check bool) "norestart debra findable" true
    (Registry.find "debra-norestart" <> None);
  Alcotest.(check bool) "oracle findable" true
    (Registry.find "unsafefree" <> None);
  Alcotest.(check bool) "unfenced findable" true
    (Registry.find "2geibr-unfenced" <> None);
  Alcotest.(check bool) "noncas qsbr findable" true
    (Registry.find "qsbr-noncas" <> None);
  Alcotest.(check bool) "noflush ebr findable" true
    (Registry.find "ebr-noflush" <> None);
  List.iter
    (fun (o : Registry.entry) ->
       Alcotest.(check bool) "oracles not in all" true
         (not (List.exists (fun (e : Registry.entry) -> e.name = o.name)
                 Registry.all)))
    Registry.oracles

let test_sim_key_ranges () =
  List.iter
    (fun ds ->
       Alcotest.(check bool) (ds ^ " range positive") true
         (Ibr_harness.Workload.sim_key_range ds > 0))
    [ "list"; "hashmap"; "nmtree"; "bonsai"; "unknown" ]

let suite =
  [
    Alcotest.test_case "fig9 shape (robustness headline)" `Slow test_fig9_shape;
    Alcotest.test_case "fig8 shape (throughput headline)" `Slow test_fig8_shape;
    Alcotest.test_case "hashmap bucket validation" `Quick
      test_hashmap_bucket_validation;
    Alcotest.test_case "hashmap one bucket" `Quick test_hashmap_tiny_table;
    Alcotest.test_case "hashmap spread" `Quick test_hashmap_spread;
    Alcotest.test_case "hashmap big keys" `Quick test_hashmap_negative_like_keys;
    Alcotest.test_case "slot budget refused at create" `Quick
      test_slot_budget_refused;
    Alcotest.test_case "slot budget met exactly" `Quick test_slot_budget_exact;
    Alcotest.test_case "config rejects slots < 1" `Quick test_slots_validated;
    QCheck_alcotest.to_alcotest qcheck_bonsai_balanced;
    Alcotest.test_case "bonsai speculation reclaimed" `Slow
      test_bonsai_speculation_reclaimed;
    Alcotest.test_case "with_op restart accounting" `Quick
      test_with_op_restart_accounting;
    Alcotest.test_case "with_op exception safety" `Quick
      test_with_op_exception_safe;
    Alcotest.test_case "cost pp / with_fence" `Quick test_cost_pp_and_fence;
    Alcotest.test_case "sparkline" `Quick test_sparkline;
    Alcotest.test_case "run_threads helper" `Quick test_run_threads_helper;
    Alcotest.test_case "registry oracles" `Quick test_registry_oracles;
    Alcotest.test_case "sim key ranges" `Quick test_sim_key_ranges;
  ]
