(* Fraser's original epoch-based reclamation [12] (paper §2.2).

   Where our [Ebr] advances the global epoch on an allocation cadence
   (the §3 convention), Fraser's scheme advances it only when *every*
   active thread has been observed in the current epoch: a thread
   posts the epoch at operation start, and a would-be advancer CASes
   e -> e+1 once all posted reservations equal e.  Blocks retired in
   epoch x become reclaimable at epoch x+2 — by then every thread has
   begun a fresh operation since the retirement.

   Properties are EBR's: zero per-read cost, not robust (one thread
   parked mid-operation freezes the epoch and with it all
   reclamation). *)

open Tracker_kernel

(* Reservation values: the observed epoch, or [inactive].  A free or
   ejected slot reads [inactive], which is also a joiner's correct
   state between operations, so it never blocks the advance. *)
let inactive = max_int

(* Advance e -> e+1 iff every active thread has posted e (or later —
   possible when it raced past us). *)
let try_advance t =
  let e = Epoch.read t.epoch in
  let all_observed =
    Array.for_all
      (fun slot ->
         Prim.charge_scan ();
         let r = Atomic.get slot in
         r = inactive || r >= e)
      t.res
  in
  if all_observed then ignore (Epoch.advance_cas t.epoch ~expected:e)

module Policy = struct
  let name = "EBR-Fraser"

  let props = {
    Tracker_intf.robust = false;
    needs_unreserve = false;
    mutable_pointers = true;
    bounded_slots = false;
    pointer_tag_words = 0;
    fence_per_read = false;
    summary =
      "Fraser's EBR: epoch advances only when all active threads have \
       observed it; two-epoch lag, frozen by any stalled thread";
  }

  include Default_hooks
  include Plain_ops

  type 'a res = int Atomic.t array
  type 'a state = int Atomic.t   (* this thread's observed epoch *)

  let epoch = Quiescence
  let create_res ~threads _ =
    Array.init threads (fun _ -> Ibr_runtime.Padded.copy (Atomic.make inactive))

  let create_state t ~tid = t.res.(tid)

  (* retire_epoch > e - 2, i.e. the two-epoch-lag threshold. *)
  let source t () =
    let e = Epoch.read t.epoch in
    Reclaimer.Shape (Tracker_common.Conflict.Threshold (e - 1))

  (* The advance attempt runs before every cadence and pressure
     sweep. *)
  let prepare = try_advance

  (* The caller is between operations: help the epoch forward two
     steps so blocks retired before its last operation become
     reclaimable. *)
  let before_force h =
    try_advance h.t;
    try_advance h.t

  let clear t ~tid = Prim.write t.res.(tid) inactive

  let start_op h =
    let e = Epoch.read h.t.epoch in
    Prim.write h.st e;
    Ibr_obs.Probe.reserve ~slot:0

  let end_op h =
    Prim.write h.st inactive;
    Ibr_obs.Probe.unreserve ~slot:0

  let resume = start_op
end

include Make (Policy)
