(* Differential tests for the sorted-snapshot sweep path: for random
   reservation tables and block lifetimes, what [Reclaimer.survives]
   keeps must agree *exactly* with the original linear-scan predicates
   it replaced, for every tracker family — interval reservations
   (TagIBR/2GEIBR), era/epoch points (HE, POIBR), and the epoch
   threshold (EBR/QSBR/Fraser). *)

open Ibr_core

let epoch_range = 200

(* A reservation slot in any state a sweep can observe: unreserved,
   mid-[clear] (lower already max_int, upper stale), mid-[start]
   (lower fresh, upper still cleared), or fully reserved. *)
let slot_gen =
  QCheck.Gen.(
    int_bound 9 >>= fun shape ->
    int_bound epoch_range >>= fun e ->
    int_bound 40 >>= fun len ->
    match shape with
    | 0 | 1 -> return (max_int, max_int)          (* empty *)
    | 2 -> return (max_int, e)                    (* mid-clear *)
    | 3 -> return (e, max_int)                    (* mid-start *)
    | _ -> return (e, e + len))                   (* reserved interval *)

let block_gen =
  QCheck.Gen.(
    int_bound epoch_range >>= fun birth ->
    int_bound 50 >>= fun len -> return (birth, birth + len))

let table_gen =
  QCheck.Gen.(
    int_range 1 100 >>= fun threads ->
    list_size (return threads) slot_gen >>= fun slots ->
    list_size (int_bound 60) block_gen >>= fun blocks ->
    return (slots, blocks))

let print_case (slots, blocks) =
  Printf.sprintf "slots=%s blocks=%s"
    (String.concat ";"
       (List.map
          (fun (lo, hi) ->
             Printf.sprintf "[%s,%s]"
               (if lo = max_int then "MAX" else string_of_int lo)
               (if hi = max_int then "MAX" else string_of_int hi))
          slots))
    (String.concat ";"
       (List.map (fun (b, r) -> Printf.sprintf "(%d,%d)" b r) blocks))

let mk_block id (birth, retire) =
  let b = Block.make ~id 0 in
  Block.set_birth_epoch b birth;
  Block.set_retire_epoch b retire;
  b

(* An interval reservation table holding [slots], one (lower, upper)
   pair per thread. *)
let interval_res slots =
  let res = Tracker_common.Interval_res.create (List.length slots) in
  List.iteri
    (fun tid (lo, hi) ->
       Atomic.set res.Tracker_common.Interval_res.lower.(tid) lo;
       Atomic.set res.Tracker_common.Interval_res.upper.(tid) hi)
    slots;
  res

let qcheck_interval_differential =
  QCheck.Test.make
    ~name:"sorted snapshot = linear scan (interval reservations)"
    ~count:1000
    (QCheck.make ~print:print_case table_gen)
    (fun (slots, blocks) ->
       let res = interval_res slots in
       let oracle = Tracker_common.Interval_res.conflict_with_snapshot res in
       let fast =
         Reclaimer.survives
           (Reclaimer.intervals
              (Tracker_common.Interval_res.sweep_snapshot res))
       in
       List.for_all
         (fun lifetime ->
            let b = mk_block 0 lifetime in
            oracle b = fast b)
         blocks)

let qcheck_era_differential =
  (* HE form: single reserved eras, 0 = empty slot. *)
  QCheck.Test.make ~name:"sorted snapshot = linear scan (era points)"
    ~count:1000
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 200) (int_bound epoch_range))
           (list_size (int_bound 60) block_gen)))
    (fun (eras, blocks) ->
       let eras = Array.of_list eras in
       let no_era = 0 in
       let reserved =
         Array.to_list eras |> List.filter (fun e -> e <> no_era) in
       let oracle b =
         List.exists
           (fun e -> Block.birth_epoch b <= e && e <= Block.retire_epoch b)
           reserved
       in
       let fast =
         Reclaimer.survives
           (Reclaimer.intervals
              (Tracker_common.Sweep_snapshot.of_points ~none:no_era eras))
       in
       List.for_all
         (fun lifetime ->
            let b = mk_block 0 lifetime in
            oracle b = fast b)
         blocks)

let qcheck_threshold_differential =
  (* EBR form: conflict iff retired at or after the oldest
     reservation. *)
  QCheck.Test.make ~name:"threshold conflict = min-reservation scan"
    ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 100)
              (oneof [ return max_int; int_bound epoch_range ]))
           (list_size (int_bound 60) block_gen)))
    (fun (reservations, blocks) ->
       let max_safe = List.fold_left min max_int reservations in
       let oracle b =
         List.exists (fun r -> Block.retire_epoch b >= r) reservations
       in
       let fast =
         Reclaimer.survives { Reclaimer.below = max_safe; keep = None }
       in
       List.for_all
         (fun lifetime ->
            let b = mk_block 0 lifetime in
            oracle b = fast b)
         blocks)

let test_sweep_stats_accumulate () =
  let baseline = Ibr_obs.Metrics.begin_run () in
  (* Keep blocks with even birth epochs, free the rest: a per-block
     test under the lowest bound makes the store test every block. *)
  let retired =
    Reclaimer.create ~empty_freq:0
      ~source:(fun () ->
        { Reclaimer.below = min_int;
          keep = Some (fun b -> Block.birth_epoch b mod 2 = 0) })
      ~free:ignore ()
  in
  for i = 0 to 9 do
    let b = mk_block i (i, i + 1) in
    Block.transition_retire b;
    Reclaimer.add retired b
  done;
  Reclaimer.force retired;
  let d = Ibr_obs.Metrics.get (Ibr_obs.Metrics.collect baseline) in
  Alcotest.(check int) "one sweep" 1 (d "sweeps");
  Alcotest.(check int) "examined all" 10 (d "sweep_examined");
  Alcotest.(check int) "freed odd births" 5 (d "sweep_freed");
  Alcotest.(check int) "kept the rest" 5 (Reclaimer.count retired)

let test_snapshot_merges () =
  (* Overlapping and adjacent intervals collapse; disjoint ones stay;
     the unreserved slot is dropped.  Built by the production digest
     of an interval table. *)
  let snap =
    Tracker_common.Interval_res.sweep_snapshot
      (interval_res
         [ (5, 9); (1, 2); (3, 4); (20, 21); (max_int, max_int); (22, 30) ])
  in
  (* [1,2]+[3,4]+[5,9] merge (adjacent integers), [20,21]+[22,30] merge. *)
  Alcotest.(check int) "two merged runs" 2
    (Tracker_common.Sweep_snapshot.length snap);
  let conflict birth retire =
    Tracker_common.Sweep_snapshot.conflict snap ~birth ~retire in
  Alcotest.(check bool) "inside first run" true (conflict 2 3);
  Alcotest.(check bool) "gap between runs" false (conflict 10 19);
  Alcotest.(check bool) "inside second run" true (conflict 25 25);
  Alcotest.(check bool) "before everything" false (conflict 0 0);
  Alcotest.(check bool) "after everything" false (conflict 31 99);
  Alcotest.(check bool) "spanning the gap" true (conflict 10 20)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_interval_differential;
    QCheck_alcotest.to_alcotest qcheck_era_differential;
    QCheck_alcotest.to_alcotest qcheck_threshold_differential;
    Alcotest.test_case "sweep stats accumulate" `Quick
      test_sweep_stats_accumulate;
    Alcotest.test_case "snapshot merge/conflict" `Quick test_snapshot_merges;
  ]
