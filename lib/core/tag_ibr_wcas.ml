(* TagIBR-WCAS (paper §3.2.1, "Using Wide or Double CAS").

   With a double-width CAS the born_before word and the address are
   updated together, atomically: the monotonic-increase convention is
   unnecessary, born_before is always the *exact* birth epoch of the
   current target (no slack), and writes/CASes are wait-free with a
   single atomic instruction.

   Substrate note: OCaml's [Atomic.t] on an immutable boxed pair
   replaces both words in one atomic step — the same atomicity
   granularity as cmpxchg16b (see DESIGN.md §1).  The cost model
   charges the [cas] price for it. *)

module Ops = struct
  let name = "TagIBR-WCAS"

  let props = {
    Tracker_intf.robust = true;
    needs_unreserve = false;
    mutable_pointers = true;
    bounded_slots = false;
    pointer_tag_words = 1;
    fence_per_read = false;
    summary =
      "TagIBR with double-width CAS: exact birth epochs, no slack, \
       wait-free writes; needs WCAS/DCAS hardware";
  }

  (* The pair is immutable; the view box inside is what [cas] expects
     to find (physical equality). *)
  type 'a packed = { bb : int; view : 'a View.t }
  type 'a ptr = 'a packed Atomic.t

  let pack ?tag target =
    let bb = match target with
      | None -> 0
      | Some b -> Block.birth_epoch b
    in
    { bb; view = View.make ?tag target }

  let make_ptr ?tag target = Atomic.make (pack ?tag target)

  (* born_before travels atomically with the view, so one read covers
     both; the publish-fence-reread discipline is as in TagIBR. *)
  let rec protect upper p published =
    let pk = Prim.read p in
    if pk.bb <= published then pk.view
    else begin
      Prim.write upper pk.bb;
      Prim.fence ();
      protect upper p pk.bb
    end

  let read ~epoch:_ ~upper p = protect upper p (Atomic.get upper)

  let write p ?tag target = Prim.write p (pack ?tag target)

  (* Wide CAS: succeed iff the *view* is the expected one; the paired
     born_before always matches it, so comparing the view suffices. *)
  let cas p ~expected ?tag target =
    let cur = Prim.read p in
    if cur.view != expected then begin
      Prim.local 1;
      false
    end
    else Prim.cas p cur (pack ?tag target)
end

include Interval_ibr.Make (Ops)
