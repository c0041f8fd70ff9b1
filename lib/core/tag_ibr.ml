(* Tagged-pointer IBR (paper §3.2, Fig. 5) — the default CAS variant
   and the FAA variant of §3.2.1.

   Each shared pointer carries a [born_before] word: a monotonically
   increasing epoch no less than the birth epoch of the pointer's
   target.  Installing a pointer first raises born_before to the new
   target's birth epoch (the "two-step update"); reading a pointer
   extends the thread's upper reservation endpoint to cover
   born_before before trusting the target.

   The two strategies for raising born_before:
   - CAS: loop until the field covers the birth epoch — precise, but a
     second CAS on every write and O(n^2) steps under contention;
   - FAA: one wait-free fetch-and-add of the deficit — cheaper under
     contention but concurrent adds overshoot ("slack"), making
     reservations coarser.  (Fig. 7's TagIBR-FAA row.) *)

module type BB_STRATEGY = sig
  val name : string
  val summary : string
  val raise_bb : int Atomic.t -> int -> unit
  (* [raise_bb bb birth] ensures [bb >= birth] before returning. *)
end

module Cas_strategy = struct
  let name = "TagIBR"
  let summary =
    "start epoch + latest born-before seen; doubles pointer size, \
     extra CAS per write, slack from the 2-step update"

  (* Fig. 5 lines 7–9 / 12–14. *)
  let rec raise_bb bb birth =
    let ori = Prim.hot_read bb in
    if birth <= ori then ()
    else if Prim.cas bb ori birth then ()
    else raise_bb bb birth
end

module Faa_strategy = struct
  let name = "TagIBR-FAA"
  let summary =
    "TagIBR with wait-free FAA born-before updates; less contention, \
     more slack"

  let raise_bb bb birth =
    let ori = Prim.hot_read bb in
    if birth > ori then ignore (Prim.faa bb (birth - ori))
end

module Make_ops (S : BB_STRATEGY) = struct
  let name = S.name

  let props = {
    Tracker_intf.robust = true;
    needs_unreserve = false;
    mutable_pointers = true;
    bounded_slots = false;
    pointer_tag_words = 1;
    fence_per_read = false;
    summary = S.summary;
  }

  type 'a ptr = {
    born_before : int Atomic.t;   (* monotonically increasing *)
    cell : 'a View.t Atomic.t;
  }

  let make_ptr ?tag target =
    let birth = match target with
      | None -> 0
      | Some b -> Block.birth_epoch b
    in
    { born_before = Atomic.make birth;
      cell = Atomic.make (View.make ?tag target) }

  (* Protected read (Fig. 5 lines 46–51).  A view is returned only if
     it was read while the thread's published upper endpoint already
     covered the pointer's born_before field; otherwise we extend the
     reservation, fence, and re-read. *)
  let rec protect upper p published =
    let v = Prim.read p.cell in
    let bb = Prim.hot_read p.born_before in
    if bb <= published then v
    else begin
      Prim.write upper bb;
      Prim.fence ();
      protect upper p bb
    end

  let read ~epoch:_ ~upper p = protect upper p (Atomic.get upper)

  (* Fig. 5 lines 11–15: raise born_before, then store. *)
  let write p ?tag target =
    (match target with
     | None -> ()
     | Some b -> S.raise_bb p.born_before (Block.birth_epoch b));
    Prim.write p.cell (View.make ?tag target)

  (* Fig. 5 lines 6–10: raise born_before, then CAS the address. *)
  let cas p ~expected ?tag target =
    (match target with
     | None -> ()
     | Some b -> S.raise_bb p.born_before (Block.birth_epoch b));
    Prim.cas p.cell expected (View.make ?tag target)
end

module Cas = Interval_ibr.Make (Make_ops (Cas_strategy))
module Faa = Interval_ibr.Make (Make_ops (Faa_strategy))
