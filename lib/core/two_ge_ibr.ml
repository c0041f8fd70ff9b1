(* Two-global-epochs IBR (paper §3.3, Fig. 6).

   Interval reservations like TagIBR, but the upper endpoint tracks
   the *global epoch* observed while reading rather than a per-pointer
   born_before tag: the target of a just-read pointer is alive in the
   current epoch, hence born no later than it.  Normal-sized pointers,
   no extra CAS on writes — at the cost of slightly coarser
   reservations.

   Note on the read loop: Fig. 6 compresses the snapshot idiom.  We
   return a pointer only if it was read while the covering upper
   endpoint was *already published* (the discipline of HE's protect
   and of POIBR's Fig. 4): publish the new epoch, fence, then re-read
   the pointer.  The paper's prose ("finally the global epoch is
   verified to be unchanged") demands exactly this visibility; the
   simulator's safety tests exercise the difference. *)

module Ops = struct
  let name = "2GEIBR"

  let props = {
    Tracker_intf.robust = true;
    needs_unreserve = false;
    mutable_pointers = true;
    bounded_slots = false;
    pointer_tag_words = 0;
    fence_per_read = false;
    summary =
      "start epoch + latest epoch seen while reading; TagIBR coverage \
       with plain pointers, slightly less precision";
  }

  type 'a ptr = 'a Plain_ptr.t

  let make_ptr ?tag target = Plain_ptr.make ?tag target

  let rec protect epoch upper p published =
    let v = Plain_ptr.read p in
    let e = Epoch.read epoch in
    if e = published then v
    else begin
      (* Epoch moved: extend the reservation, make it visible, and
         re-read under its cover. *)
      Prim.write upper e;
      Prim.fence ();
      protect epoch upper p e
    end

  let read ~epoch ~upper p = protect epoch upper p (Atomic.get upper)

  let write p ?tag target = Plain_ptr.write p ?tag target
  let cas p ~expected ?tag target = Plain_ptr.cas p ~expected ?tag target
end

include Interval_ibr.Make (Ops)

(* The *literal* Fig. 6 reading of 2GEIBR — a documented-unsound
   oracle that differs from the sound scheme only in [read].

   Fig. 6's pseudocode reads the pointer (line 3), then extends the
   upper endpoint (line 4), then verifies the epoch is unchanged
   (line 5) and returns the pointer read *before* the reservation was
   published.  The window between line 3 and line 4 admits a race: a
   reclaimer can snapshot this thread's stale upper endpoint, decide a
   just-read young block is uncovered, and free it before the
   extension lands — even though the epoch never changes, so line 5
   passes.

   It exists so the failure is demonstrable rather than hypothetical:
   the simulator's fault checker catches it under adversarial
   schedules (see test_safety / EXPERIMENTS.md).  Never use it for
   real work. *)
module Unfenced = Interval_ibr.Make (struct
    include Ops

    let name = "2GEIBR-unfenced"

    let props = {
      props with
      summary =
        "UNSOUND literal Fig. 6 ordering: pointer read escapes before \
         its reservation publishes; kept as a demonstration oracle";
    }

    (* Fig. 6 lines 2-5, verbatim ordering. *)
    let rec read ~epoch ~upper p =
      let v = Plain_ptr.read p in                           (* line 3 *)
      let e = Epoch.read epoch in
      let cur = Atomic.get upper in
      if e > cur then Prim.write upper e;                   (* line 4 *)
      let e' = Epoch.read epoch in
      if max cur e = e' then v                              (* line 5 *)
      else read ~epoch ~upper p
  end)
