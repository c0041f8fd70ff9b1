(* The hot path's allocation budget (DESIGN.md §1a): a protected read
   allocates nothing, and an operation allocates only what it returns
   or publishes.

   Everything here runs natively on one domain with no handler
   installed, which is how a Domains-backend worker runs, and counts
   [Gc.minor_words] across many calls.  That counter is exact for the
   calling domain, so each figure is a deterministic count, not a
   sample.  Caps are words per call (per operation for the
   remove/reinsert pairs); a failure names the measured figure. *)

open Ibr_core
open Ibr_ds

let calls = 10_000

(* Minor words per call of [f i], for [i] in [0, n). *)
let words_per_call ?(n = calls) f =
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let assert_native () =
  Alcotest.(check int) "no handler installed" 0
    (Ibr_runtime.Hooks.installed ());
  Alcotest.(check bool) "no cost attribution" false
    (Ibr_runtime.Hooks.active ())

let within what ~cap words =
  if words > cap then
    Alcotest.failf "%s: %.2f words per call, over the cap of %.2f" what words
      cap

(* -- protected reads -- *)

(* [T.read] of a pointer to a live block, inside an operation.  Two
   regimes: the epoch still (every scheme's fast path), and, between
   reads, the epoch advanced by [epoch_freq] allocations and the
   pointer moved to a block born in the new epoch — so 2GEIBR and HE
   re-publish and fence, and the TagIBR family extends its upper
   endpoint to the new born-before.  The perturbation's own words are
   measured alone and subtracted. *)
let read_case (e : Registry.entry) () =
  assert_native ();
  let (module T) = e.tracker in
  let cfg = Tracker_intf.default_config () in
  let t : int T.t = T.create ~threads:1 cfg in
  let h = T.register t ~tid:0 in
  let p = T.make_ptr t (Some (T.alloc h 0)) in
  T.start_op h;
  let read () = ignore (Sys.opaque_identity (T.read h ~slot:0 p)) in
  within (e.name ^ " read, epoch still") ~cap:0.01
    (words_per_call (fun _ -> read ()));
  let perturb () =
    for _ = 1 to cfg.epoch_freq do
      T.dealloc h (T.alloc h 0)
    done;
    T.write h p (Some (T.alloc h 0))
  in
  let e0 = T.epoch_value t in
  let with_read = words_per_call (fun _ -> perturb (); read ()) in
  let alone = words_per_call (fun _ -> perturb ()) in
  (* The robust schemes with an epoch tick it on allocation. *)
  if T.props.robust && e0 <> 0 then
    Alcotest.(check bool) "the epoch advanced" true (T.epoch_value t > e0);
  within (e.name ^ " read, epoch advanced") ~cap:0.01 (with_read -. alone);
  T.end_op h

(* -- the workload's draws -- *)

let draws () =
  assert_native ();
  let rng = Ibr_runtime.Rng.create 0xa110c in
  let spec = Ibr_harness.Workload.spec_for "hashmap" in
  within "Workload.pick_key" ~cap:0.0
    (words_per_call (fun _ ->
       ignore (Sys.opaque_identity (Ibr_harness.Workload.pick_key rng spec))));
  within "Workload.pick_op" ~cap:0.0
    (words_per_call (fun _ ->
       ignore
         (Sys.opaque_identity
            (Ibr_harness.Workload.pick_op rng Ibr_harness.Workload.profile_e))))

(* -- sweeps -- *)

(* 10,000 retired blocks in 10 epoch buckets, all older than the
   test's bound: one sweep frees them whole, and allocates the same
   few words however many blocks the buckets hold. *)
let wholesale_case what make_source () =
  assert_native ();
  let source = make_source () and freed = ref 0 in
  let rc =
    Reclaimer.create ~empty_freq:0 ~source ~free:(fun _ -> incr freed) ()
  in
  for i = 0 to calls - 1 do
    let b = Block.make ~id:i 0 in
    Block.set_birth_epoch b (i / 1_000);
    Block.transition_retire b;
    Block.set_retire_epoch b (i / 1_000);
    Reclaimer.add rc b
  done;
  Alcotest.(check int) "ten buckets" 10 (Reclaimer.bucket_count rc);
  let words = words_per_call ~n:1 (fun _ -> Reclaimer.force rc) in
  Alcotest.(check int) "every block freed" calls !freed;
  within ("wholesale sweep of 10,000 blocks under " ^ what) ~cap:64.0 words

let wholesale_threshold () () = { Reclaimer.below = 10; keep = None }

(* Two interval reservations, both younger than every bucket. *)
let wholesale_intervals () =
  let res = Tracker_common.Interval_res.create 4 in
  Tracker_common.Interval_res.start res ~tid:0 20;
  Tracker_common.Interval_res.start res ~tid:2 30;
  fun () ->
    Reclaimer.intervals (Tracker_common.Interval_res.sweep_snapshot res)

(* -- whole operations -- *)

(* Prefill [R] as the workload does, warm it up until its magazines
   and retired store reach their steady state, and draw the keys the
   measured calls use: [keys] are held, [draws] are uniform over the
   key range. *)
let prefilled (type a b) ?(cfg = Tracker_intf.default_config ())
    (module R : Ds_intf.RIDEABLE with type t = a and type handle = b)
    ds_name =
  let t = R.create ~threads:1 cfg in
  let h = R.register t ~tid:0 in
  let m = Option.get R.map in
  let spec = Ibr_harness.Workload.spec_for ds_name in
  Ibr_harness.Workload.prefill ~rng:(Ibr_runtime.Rng.create 7) ~spec
    ~insert:(fun ~key ~value -> m.insert h ~key ~value);
  let held = Array.of_list (List.map fst (m.to_sorted_list t)) in
  let rng = Ibr_runtime.Rng.create 11 in
  let pick () = held.(Ibr_runtime.Rng.int rng (Array.length held)) in
  for _ = 1 to calls do
    let key = pick () in
    ignore (m.remove h ~key);
    ignore (m.insert h ~key ~value:key)
  done;
  let keys = Array.init calls (fun _ -> pick ()) in
  let draws =
    Array.init calls (fun _ -> Ibr_runtime.Rng.int rng spec.key_range) in
  (t, h, m, spec, keys, draws)

let map_case (maker : Ds_registry.maker) ~get_cap ~churn_cap
    (tracker : Registry.entry) () =
  assert_native ();
  let (module R) = maker.instantiate tracker.tracker in
  let _, h, m, spec, keys, draws = prefilled (module R) maker.ds_name in
  let what op =
    Printf.sprintf "%s %s under %s" maker.ds_name op tracker.name in
  within (what "get (held key)") ~cap:get_cap
    (words_per_call (fun i ->
       ignore (Sys.opaque_identity (m.get h ~key:keys.(i)))));
  within (what "get (drawn key)") ~cap:get_cap
    (words_per_call (fun i ->
       ignore (Sys.opaque_identity (m.get h ~key:draws.(i)))));
  (* The same gets through the run loop's dispatch, built once per run
     as the engine builds it: the dispatch itself adds nothing. *)
  let perform = Ibr_harness.Run_engine.dispatch (module R) spec in
  within (what "get through the engine's dispatch") ~cap:get_cap
    (words_per_call (fun i ->
       if not (perform h Ibr_harness.Workload.Get keys.(i)) then
         Alcotest.fail "a get aborted"));
  (* Each call is two operations: remove a held key, put it back. *)
  let pair =
    words_per_call (fun i ->
      let key = keys.(i) in
      if not (m.remove h ~key) then Alcotest.fail "remove missed a held key";
      if not (m.insert h ~key ~value:key) then
        Alcotest.fail "reinsert found the removed key")
  in
  within (what "remove/reinsert, per op") ~cap:churn_cap (pair /. 2.0)

(* A scan of the workload's 64-key window returns its entries as a
   list of pairs, 6 words each; everything else the scan allocates
   must fit in a constant. *)
let range_case (tracker : Registry.entry) () =
  assert_native ();
  let (module R) = Ds_registry.nm_tree_maker.instantiate tracker.tracker in
  let _, h, _, spec, _, draws = prefilled (module R) "nmtree" in
  let r = Option.get R.range in
  let entries = ref 0 in
  let words =
    words_per_call (fun i ->
      let lo = draws.(i) in
      let hi = Ibr_harness.Workload.scan_hi spec lo in
      entries := !entries + List.length (r.range h ~lo ~hi))
  in
  let per_scan = float_of_int !entries /. float_of_int calls in
  within
    (Printf.sprintf "nmtree range under %s (%.1f entries per scan)"
       tracker.name per_scan)
    ~cap:((6.0 *. per_scan) +. 24.0)
    words

(* The background reclaimer's drain, per block it moves into its
   store: the batch's reversal and the bucket cons, the sweeps its
   cadence runs, and the frees.  A drain every 64 remove/reinsert
   pairs takes about 64 blocks. *)
let drain_case (tracker : Registry.entry) () =
  assert_native ();
  let (module R) = Ds_registry.hashmap_maker.instantiate tracker.tracker in
  let cfg =
    { (Tracker_intf.default_config ()) with background_reclaim = true } in
  let t, h, m, _, keys, _ = prefilled ~cfg (module R) "hashmap" in
  let svc = Option.get (R.reclaim_service t) in
  ignore (svc.drain ());
  let words = ref 0.0 and drained = ref 0 in
  Array.iteri
    (fun i key ->
       ignore (m.remove h ~key);
       ignore (m.insert h ~key ~value:key);
       if i mod 64 = 63 then begin
         let before = Gc.minor_words () in
         drained := !drained + svc.drain ();
         words := !words +. (Gc.minor_words () -. before)
       end)
    keys;
  within
    (Printf.sprintf "hashmap background drain under %s (%d blocks), per block"
       tracker.name !drained)
    ~cap:17.0
    (!words /. float_of_int !drained)

let budgeted = [ Registry.no_mm; Registry.ebr; Registry.two_ge_ibr; Registry.he ]

let suite =
  List.map
    (fun (e : Registry.entry) ->
       Alcotest.test_case ("read allocates nothing: " ^ e.name) `Quick
         (read_case e))
    Registry.all
  @ [ Alcotest.test_case "workload draws allocate nothing" `Quick draws;
      Alcotest.test_case "wholesale sweep allocates a constant: threshold"
        `Quick
        (wholesale_case "a threshold" wholesale_threshold);
      Alcotest.test_case "wholesale sweep allocates a constant: intervals"
        `Quick
        (wholesale_case "an interval digest" wholesale_intervals) ]
  @ List.concat_map
      (fun (e : Registry.entry) ->
         [
           Alcotest.test_case ("hashmap ops: " ^ e.name) `Quick
             (map_case Ds_registry.hashmap_maker ~get_cap:16.0
                ~churn_cap:42.0 e);
           Alcotest.test_case ("nmtree ops: " ^ e.name) `Quick
             (map_case Ds_registry.nm_tree_maker ~get_cap:28.0
                ~churn_cap:78.0 e);
           Alcotest.test_case ("nmtree range: " ^ e.name) `Quick
             (range_case e);
         ])
      budgeted
  @ List.map
      (fun (e : Registry.entry) ->
         Alcotest.test_case ("hashmap background drain: " ^ e.name) `Quick
           (drain_case e))
      [ Registry.ebr; Registry.two_ge_ibr; Registry.he ]
