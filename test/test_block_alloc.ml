(* Block lifecycle and the simulated manual allocator. *)

open Ibr_core

let with_raise_mode f =
  Fault.set_mode Fault.Raise;
  Fun.protect ~finally:(fun () -> Fault.set_mode Fault.Raise) f

let test_block_lifecycle () =
  with_raise_mode (fun () ->
    let b = Block.make ~id:1 "hello" in
    Alcotest.(check bool) "live" true (Block.is_live b);
    Alcotest.(check string) "payload" "hello" (Block.get b);
    Block.transition_retire b;
    Alcotest.(check bool) "retired" true (Block.is_retired b);
    (* Retired blocks are still readable (references may be live). *)
    Alcotest.(check string) "payload after retire" "hello" (Block.get b);
    Block.transition_reclaim b;
    Alcotest.(check bool) "reclaimed" true (Block.is_reclaimed b))

let test_use_after_free_raises () =
  with_raise_mode (fun () ->
    let b = Block.make ~id:2 7 in
    Block.transition_retire b;
    Block.transition_reclaim b;
    match Block.get b with
    | exception Fault.Memory_fault (Fault.Use_after_free, _) -> ()
    | _ -> Alcotest.fail "expected use-after-free fault")

let test_use_after_free_counted () =
  let b = Block.make ~id:3 7 in
  Block.transition_retire b;
  Block.transition_reclaim b;
  let v, faults = Fault.with_counting (fun () -> Block.get b) in
  Alcotest.(check int) "stale payload returned" 7 v;
  Alcotest.(check int) "one fault" 1 faults

let test_double_retire_detected () =
  with_raise_mode (fun () ->
    let b = Block.make ~id:4 () in
    Block.transition_retire b;
    match Block.transition_retire b with
    | exception Fault.Memory_fault (Fault.Double_retire, _) -> ()
    | _ -> Alcotest.fail "expected double-retire fault")

let test_double_free_detected () =
  with_raise_mode (fun () ->
    let b = Block.make ~id:5 () in
    Block.transition_retire b;
    Block.transition_reclaim b;
    match Block.transition_reclaim b with
    | exception Fault.Memory_fault (Fault.Double_free, _) -> ()
    | _ -> Alcotest.fail "expected double-free fault")

let test_free_without_retire_detected () =
  with_raise_mode (fun () ->
    let b = Block.make ~id:6 () in
    match Block.transition_reclaim b with
    | exception Fault.Memory_fault (Fault.Double_free, _) -> ()
    | _ -> Alcotest.fail "expected fault on free of live block")

let test_peek_total () =
  let b = Block.make ~id:7 "x" in
  Alcotest.(check (option string)) "peek live" (Some "x") (Block.peek b);
  Block.transition_retire b;
  Block.transition_reclaim b;
  Alcotest.(check (option string)) "peek reclaimed" None (Block.peek b)

let test_reincarnation () =
  let b = Block.make ~id:8 "first" in
  Block.transition_retire b;
  Block.transition_reclaim b;
  Block.set_birth_epoch b 0;
  Block.reincarnate b "second";
  Alcotest.(check bool) "live again" true (Block.is_live b);
  Alcotest.(check string) "new payload" "second" (Block.get b);
  Alcotest.(check int) "incarnation bumped" 1 (Block.incarnation b);
  Alcotest.(check int) "retire epoch reset" max_int (Block.retire_epoch b)

let test_alloc_reuse_cycle () =
  let a = Alloc.create ~reuse:true ~threads:2 () in
  let b1 = Alloc.alloc a ~tid:0 "one" in
  Block.transition_retire b1;
  Alloc.free a ~tid:0 b1;
  let b2 = Alloc.alloc a ~tid:0 "two" in
  Alcotest.(check bool) "same block object reused" true (b1 == b2);
  Alcotest.(check string) "fresh payload" "two" (Block.get b2);
  let s = Alloc.stats a in
  Alcotest.(check int) "allocated" 2 s.allocated;
  Alcotest.(check int) "reused" 1 s.reused;
  Alcotest.(check int) "fresh" 1 s.fresh

let test_alloc_no_reuse () =
  let a = Alloc.create ~reuse:false ~threads:1 () in
  let b1 = Alloc.alloc a ~tid:0 1 in
  Block.transition_retire b1;
  Alloc.free a ~tid:0 b1;
  let b2 = Alloc.alloc a ~tid:0 2 in
  Alcotest.(check bool) "no reuse" true (b1 != b2);
  Alcotest.(check bool) "old stays reclaimed" true (Block.is_reclaimed b1)

let test_alloc_caches_per_thread () =
  let a = Alloc.create ~reuse:true ~threads:2 () in
  let b1 = Alloc.alloc a ~tid:0 0 in
  Block.transition_retire b1;
  Alloc.free a ~tid:0 b1;
  (* Thread 1 allocates: must not steal thread 0's cache. *)
  let b2 = Alloc.alloc a ~tid:1 0 in
  Alcotest.(check bool) "different block" true (b1 != b2)

let test_free_unpublished () =
  let a = Alloc.create ~reuse:true ~threads:1 () in
  let b = Alloc.alloc a ~tid:0 0 in
  Alloc.free_unpublished a ~tid:0 b;
  Alcotest.(check bool) "reclaimed directly" true (Block.is_reclaimed b);
  Alcotest.(check int) "freed counted" 1 (Alloc.stats a).freed

let test_stats_live () =
  let a = Alloc.create ~reuse:false ~threads:1 () in
  let bs = List.init 5 (fun i -> Alloc.alloc a ~tid:0 i) in
  List.iteri
    (fun i b ->
       if i < 2 then begin
         Block.transition_retire b;
         Alloc.free a ~tid:0 b
       end)
    bs;
  let s = Alloc.stats a in
  Alcotest.(check int) "live" 3 s.live;
  Alcotest.(check int) "freed" 2 s.freed

let test_tid_bounds () =
  let a = Alloc.create ~threads:2 () in
  Alcotest.check_raises "tid out of range"
    (Invalid_argument "Alloc: thread id out of range") (fun () ->
      ignore (Alloc.alloc a ~tid:5 ()))

let test_unique_ids () =
  let a = Alloc.create ~reuse:false ~threads:1 () in
  let ids = List.init 100 (fun _ -> Block.id (Alloc.alloc a ~tid:0 ())) in
  Alcotest.(check int) "all ids distinct" 100
    (List.length (List.sort_uniq compare ids))

let test_fault_reset () =
  Fault.reset ();
  let b = Block.make ~id:99 () in
  Block.transition_retire b;
  Block.transition_reclaim b;
  let (), n = Fault.with_counting (fun () -> ignore (Block.peek b)) in
  Alcotest.(check int) "peek is not a fault" 0 n;
  Fault.reset ();
  Alcotest.(check int) "counters cleared" 0 (Fault.total ())

(* [Padded.copy]: the copy is at least 17 fields long, so its own
   field sits a cache line apart from any other padded block's, and it
   behaves as the original under every atomic operation, also after
   the GC has moved it. *)
type pair = { mutable a : int; b : string list }
type floats = { x : float; y : float }

let test_padded () =
  let module Padded = Ibr_runtime.Padded in
  let c = Padded.copy (Atomic.make 5) in
  Alcotest.(check bool) "cell spans >= 17 fields" true
    (Obj.size (Obj.repr c) >= 17);
  Gc.compact ();
  Alcotest.(check int) "get" 5 (Atomic.get c);
  Atomic.set c 6;
  Alcotest.(check int) "set, exchange" 6 (Atomic.exchange c 7);
  Alcotest.(check bool) "compare_and_set" true (Atomic.compare_and_set c 7 8);
  Alcotest.(check bool) "failed compare_and_set" false
    (Atomic.compare_and_set c 7 9);
  Alcotest.(check int) "fetch_and_add" 8 (Atomic.fetch_and_add c 2);
  Gc.compact ();
  Alcotest.(check int) "after compaction" 10 (Atomic.get c);
  (* A boxed payload and a record survive the GC moving them. *)
  let boxed = Padded.copy (Atomic.make [ "x" ]) in
  let r = Padded.copy { a = 1; b = [ "y"; "z" ] } in
  Gc.compact ();
  Alcotest.(check (list string)) "boxed payload" [ "x" ]
    (Atomic.exchange boxed [ "w" ]);
  r.a <- r.a + 1;
  Gc.full_major ();
  Alcotest.(check (list string)) "swapped payload" [ "w" ] (Atomic.get boxed);
  Alcotest.(check int) "record int field" 2 r.a;
  Alcotest.(check (list string)) "record list field" [ "y"; "z" ] r.b;
  Alcotest.(check bool) "record spans >= 18 fields" true
    (Obj.size (Obj.repr r) >= 18);
  let refused f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "immediate refused" true
    (refused (fun () -> Padded.copy 3));
  Alcotest.(check bool) "all-float record refused" true
    (refused (fun () -> Padded.copy { x = 1.0; y = 2.0 }))

let suite =
  [
    Alcotest.test_case "padded copy" `Quick test_padded;
    Alcotest.test_case "lifecycle" `Quick test_block_lifecycle;
    Alcotest.test_case "UAF raises" `Quick test_use_after_free_raises;
    Alcotest.test_case "UAF counted" `Quick test_use_after_free_counted;
    Alcotest.test_case "double retire" `Quick test_double_retire_detected;
    Alcotest.test_case "double free" `Quick test_double_free_detected;
    Alcotest.test_case "free live block" `Quick test_free_without_retire_detected;
    Alcotest.test_case "peek total" `Quick test_peek_total;
    Alcotest.test_case "reincarnation" `Quick test_reincarnation;
    Alcotest.test_case "alloc reuse cycle" `Quick test_alloc_reuse_cycle;
    Alcotest.test_case "alloc no reuse" `Quick test_alloc_no_reuse;
    Alcotest.test_case "per-thread caches" `Quick test_alloc_caches_per_thread;
    Alcotest.test_case "free unpublished" `Quick test_free_unpublished;
    Alcotest.test_case "stats live" `Quick test_stats_live;
    Alcotest.test_case "tid bounds" `Quick test_tid_bounds;
    Alcotest.test_case "unique ids" `Quick test_unique_ids;
    Alcotest.test_case "fault reset" `Quick test_fault_reset;
  ]
