(* TagIBR-TPA (paper §3.2.1, "Using a Type Preserving Allocator").

   No born_before word at all: the birth epoch is read from the
   target block's own header.  This is safe only because the allocator
   is type-preserving — a reclaimed block's header stays readable and
   holds a valid epoch (our allocator guarantees both; see Alloc).

   The read protocol: read the pointer, read the target's birth epoch
   from its header, extend the reservation to cover it, then re-check
   that the birth epoch (and the cell) are unchanged.  If the block
   was reclaimed and reused in the window, its birth epoch will have
   moved to a newer epoch — the double-check fails and we retry, as
   the paper argues.  Wait-free writes, plain-sized pointers, zero
   extra CASes. *)

module Ops = struct
  let name = "TagIBR-TPA"

  let props = {
    Tracker_intf.robust = true;
    needs_unreserve = false;
    mutable_pointers = true;
    bounded_slots = false;
    pointer_tag_words = 0;
    fence_per_read = false;
    summary =
      "TagIBR with birth epochs read from block headers; no pointer \
       overhead, needs a type-preserving allocator";
  }

  type 'a ptr = 'a Plain_ptr.t

  let make_ptr ?tag target = Plain_ptr.make ?tag target

  (* Reading the header of a possibly-reclaimed block is exactly what
     type preservation licenses: the value is stale but well-typed. *)
  let birth_of v =
    match v with
    | View.Null _ -> 0
    | View.Ptr { target = b; _ } ->
      Ibr_runtime.Hooks.step !Prim.costs.Ibr_runtime.Cost.hot_read;
      Block.birth_epoch b

  let rec protect upper p published =
    let v = Plain_ptr.read p in
    let bb = birth_of v in
    if bb <= published then begin
      (* Covered when read; verify the birth epoch did not move
         under us (reuse would have bumped it past our cover). *)
      let bb' = birth_of v in
      if bb' = bb then v else protect upper p published
    end
    else begin
      Prim.write upper bb;
      Prim.fence ();
      protect upper p bb
    end

  let read ~epoch:_ ~upper p = protect upper p (Atomic.get upper)

  let write p ?tag target = Plain_ptr.write p ?tag target
  let cas p ~expected ?tag target = Plain_ptr.cas p ~expected ?tag target
end

include Interval_ibr.Make (Ops)
