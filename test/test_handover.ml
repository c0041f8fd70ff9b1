(* Reservation hand-over tests for the slot-based schemes (HP, HE):
   [reassign ~src ~dst] and [unreserve ~slot] exercised mid-traversal,
   with a model-based qcheck differential showing that exactly the
   slots the model says are protecting a block actually block its
   reclamation — in particular, a reassigned slot keeps protecting
   after its source slot is released. *)

open Ibr_core

let cfg ~threads () =
  { (Tracker_intf.default_config ~threads ()) with
    reuse = false; epoch_freq = 1; empty_freq = 1_000_000 }

(* Hand-over-hand traversal shape: protect a in slot 0, protect its
   successor b in slot 1, then move b's protection down to slot 0 and
   drop slot 1 — the window where both the old and new protections
   exist must keep both blocks alive; afterwards only b is pinned.
   [precise] is HP's block granularity: the hand-over releases a.  HE
   reserves an *era*, and the surviving era lies inside a's lifetime
   too, so a legitimately stays pinned there. *)
let test_hand_over_hand ~precise (module T : Tracker_intf.TRACKER) () =
  let t = T.create ~threads:2 (cfg ~threads:2 ()) in
  let h0 = T.register t ~tid:0 and h1 = T.register t ~tid:1 in
  let a = T.alloc h0 1 and b = T.alloc h0 2 in
  let pa = T.make_ptr t (Some a) and pb = T.make_ptr t (Some b) in
  T.start_op h1;
  ignore (T.read h1 ~slot:0 pa);
  ignore (T.read h1 ~slot:1 pb);
  (* Advance: b's protection moves to slot 0, slot 1 released. *)
  T.reassign h1 ~src:1 ~dst:0;
  T.unreserve h1 ~slot:1;
  (* Writer detaches and retires both. *)
  T.start_op h0;
  T.write h0 pa None;
  T.write h0 pb None;
  T.retire h0 a;
  T.retire h0 b;
  T.end_op h0;
  T.force_empty h0;
  Alcotest.(check bool) "b still pinned by reassigned slot" false
    (Block.is_reclaimed b);
  Alcotest.(check bool)
    (if precise then "a released by the hand-over"
     else "a pinned by the surviving era")
    precise (Block.is_reclaimed a);
  T.end_op h1;
  T.force_empty h0;
  Alcotest.(check bool) "b reclaimed after end_op" true (Block.is_reclaimed b)

let test_unreserve_mid_op (module T : Tracker_intf.TRACKER) () =
  let t = T.create ~threads:2 (cfg ~threads:2 ()) in
  let h0 = T.register t ~tid:0 and h1 = T.register t ~tid:1 in
  let b = T.alloc h0 7 in
  let root = T.make_ptr t (Some b) in
  T.start_op h1;
  ignore (T.read h1 ~slot:2 root);
  T.start_op h0;
  T.write h0 root None;
  T.retire h0 b;
  T.end_op h0;
  T.force_empty h0;
  Alcotest.(check bool) "slot pins block" false (Block.is_reclaimed b);
  T.unreserve h1 ~slot:2;
  T.force_empty h0;
  Alcotest.(check bool) "unreserve releases mid-op" true
    (Block.is_reclaimed b);
  T.end_op h1

(* Model-based differential: start with the block protected in slot 0,
   apply a random script of reassigns/unreserves while tracking which
   slots the model says still protect it, then retire the block from
   the other thread and check reclamation matches the model exactly.
   Run under every retirement backend: the hand-over semantics must
   not depend on how the retired side stores its blocks. *)
type slot_op = Reassign of int * int | Unreserve of int

let slots = 4

let op_gen =
  QCheck.Gen.(
    int_bound (slots - 1) >>= fun a ->
    int_bound (slots - 1) >>= fun b ->
    oneof [ return (Reassign (a, b)); return (Unreserve a) ])

let script_gen = QCheck.Gen.(list_size (int_bound 12) op_gen)

let print_script ops =
  String.concat ";"
    (List.map
       (function
         | Reassign (s, d) -> Printf.sprintf "r%d->%d" s d
         | Unreserve s -> Printf.sprintf "u%d" s)
       ops)

let run_script (module T : Tracker_intf.TRACKER) ops =
  let t = T.create ~threads:2 (cfg ~threads:2 ()) in
  let h0 = T.register t ~tid:0 and h1 = T.register t ~tid:1 in
  let b = T.alloc h0 1 in
  let root = T.make_ptr t (Some b) in
  T.start_op h1;
  ignore (T.read h1 ~slot:0 root);
  let model = Array.make slots false in
  model.(0) <- true;
  List.iter
    (fun op ->
       match op with
       | Reassign (src, dst) ->
         T.reassign h1 ~src ~dst;
         model.(dst) <- model.(src)
       | Unreserve s ->
         T.unreserve h1 ~slot:s;
         model.(s) <- false)
    ops;
  T.start_op h0;
  T.write h0 root None;
  T.retire h0 b;
  T.end_op h0;
  T.force_empty h0;
  let protected_ = Array.exists Fun.id model in
  let ok = Block.is_reclaimed b = not protected_ in
  (* Cleanup so the precise allocator does not see a leak-on-purpose:
     release and re-sweep. *)
  T.end_op h1;
  T.force_empty h0;
  ok && Block.is_reclaimed b

let qcheck_handover (module T : Tracker_intf.TRACKER) =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s: reassign/unreserve matches slot model" T.name)
    ~count:300
    (QCheck.make ~print:print_script script_gen)
    (run_script (module T))

let suite =
  [
    Alcotest.test_case "HP: hand-over-hand" `Quick
      (test_hand_over_hand ~precise:true (module Hp));
    Alcotest.test_case "HE: hand-over-hand" `Quick
      (test_hand_over_hand ~precise:false (module He));
    Alcotest.test_case "HP: unreserve mid-op" `Quick
      (test_unreserve_mid_op (module Hp));
    Alcotest.test_case "HE: unreserve mid-op" `Quick
      (test_unreserve_mid_op (module He));
    QCheck_alcotest.to_alcotest (qcheck_handover (module Hp));
    QCheck_alcotest.to_alcotest (qcheck_handover (module He));
  ]
