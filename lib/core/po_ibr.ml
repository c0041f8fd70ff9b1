(* Persistent-object IBR (paper §3.1, Fig. 4).

   For data structures where every pointer except the root is
   immutable.  A single reserved epoch per thread, posted with the
   snapshot idiom when the root is read: because the root is the
   newest block and all interior pointers are immutable, an epoch that
   intersects the root's lifetime intersects the lifetime of
   everything reachable from it.  Interior reads are completely
   uninstrumented — cheaper even than EBR's reads. *)

open Tracker_kernel

module Policy = struct
  let name = "POIBR"

  let props = {
    Tracker_intf.robust = true;
    needs_unreserve = false;
    mutable_pointers = false;
    bounded_slots = false;
    pointer_tag_words = 0;
    fence_per_read = false;
    summary =
      "start epoch covers everything reachable from the root at start \
       time; all pointers but the root must be immutable";
  }

  include Default_hooks

  (* Interior pointers are immutable, so a plain read is already
     safe: the root reservation covers the whole reachable set. *)
  include Plain_ops

  type 'a res = int Atomic.t array
  type 'a state = int Atomic.t   (* this thread's reservation *)

  (* Fig. 4 lines 9–15: epoch tick on allocation, tag the birth
     epoch. *)
  let epoch = Allocation Charged
  let create_res ~threads _ =
    Array.init threads (fun _ -> Ibr_runtime.Padded.copy (Atomic.make max_int))

  let create_state t ~tid = t.res.(tid)

  (* Fig. 4 lines 1–8: a block is protected iff some reserved epoch
     lies within its lifetime.  The snapshot is sorted once so each
     block's test is a binary search, not a scan of every thread's
     slot. *)
  let source t () =
    let reservations = Tracker_common.snapshot_reservations t.res in
    Reclaimer.intervals
      (Tracker_common.Sweep_snapshot.of_points ~none:max_int reservations)

  (* Clearing the reservation unpins everything reachable from the
     root it had snapshotted; a released slot is a joiner's correct
     state until its first guarded root read. *)
  let clear t ~tid = Prim.write t.res.(tid) max_int

  let start_op h =
    let e = Epoch.read h.t.epoch in
    Prim.write h.st e;
    Ibr_obs.Probe.reserve ~slot:0

  let end_op h =
    Prim.write h.st max_int;
    Ibr_obs.Probe.unreserve ~slot:0

  (* The retried traversal re-guards from the root. *)
  let resume = start_op

  (* Fig. 4 lines 25–30: reserve the epoch, fence, read the root, and
     verify the epoch is unchanged — the "snapshot" idiom that pins
     the root's contents inside the reserved epoch. *)
  let rec guard_root epoch cell p =
    let e = Epoch.read epoch in
    Prim.write cell e;
    Prim.fence ();
    let v = Plain_ptr.read p in
    let e' = Epoch.read epoch in
    if e = e' then v else guard_root epoch cell p

  let read_root h p = guard_root h.t.epoch h.st p
end

include Make (Policy)
