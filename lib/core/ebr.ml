(* Epoch-based reclamation (paper §2.2, Fig. 2).

   One epoch reservation per thread, posted at [start_op], cleared
   (to MAX) at [end_op].  A retired block is reclaimable once its
   retire epoch precedes every posted reservation.  Fast — no per-read
   instrumentation at all — but not robust: one stalled thread pins
   every block retired after its start epoch. *)

open Tracker_kernel

module Policy = struct
  let name = "EBR"

  let props = {
    Tracker_intf.robust = false;
    needs_unreserve = false;
    mutable_pointers = true;
    bounded_slots = false;
    pointer_tag_words = 0;
    fence_per_read = false;
    summary =
      "start epoch reserves everything not retired before it; \
       unbounded reservation for a stalled thread";
  }

  include Default_hooks
  include Plain_ops

  type 'a res = int Atomic.t array
  type 'a state = int Atomic.t   (* this thread's reservation *)

  (* Fig. 2 ties epoch advancement to retirement; we tie it to
     allocation as §3 does for all schemes (one convention across the
     board makes the robustness bound uniform). *)
  let epoch = Allocation Uncharged
  let create_res ~threads _ =
    Array.init threads (fun _ -> Ibr_runtime.Padded.copy (Atomic.make max_int))
  let create_state t ~tid = t.res.(tid)

  (* A single-threshold conflict: reclaim every block retired before
     the oldest reservation (whole buckets at a time). *)
  let source t () =
    let reservations = Tracker_common.snapshot_reservations t.res in
    let max_safe = Array.fold_left min max_int reservations in
    { Reclaimer.below = max_safe; keep = None }

  let clear t ~tid = Prim.write t.res.(tid) max_int

  let start_op h =
    let e = Epoch.read h.t.epoch in
    Prim.write h.st e;
    Ibr_obs.Probe.reserve ~slot:0

  let end_op h =
    Prim.write h.st max_int;
    Ibr_obs.Probe.unreserve ~slot:0

  let resume = start_op
end

include Make (Policy)

(* An intentionally *unsound* EBR whose [detach] skips the final
   guarded sweep and frees every block it still holds retired,
   without testing them against other threads' reservations — the
   classic broken lifecycle shortcut ("my thread is leaving, so its
   garbage must be droppable") that per-thread registration papers
   (DEBRA, Stamp-it) warn about.  A reader mid-interval that still
   guards one of those blocks dereferences freed memory.

   Exists only so the [thread_churn] scenario has a bug to find: the
   shrunk UnsafeFree witness for this scheme is pinned under
   test/traces/. *)
module Noflush = struct
  include Make (struct
      include Policy
      let name = "EBR-noflush"
      let props = {
        props with
        summary =
          "UNSOUND detach: frees pending retirements without a final \
           guarded sweep; kept as a demonstration oracle for thread churn";
      }
    end)

  (* THE BUG: the leaver frees its pending retirements unconditionally
     ([Reclaimer.drain_all]) in place of the final guarded sweep. *)
  let detach h =
    detach_with h ~final:(fun h ->
      Reclaimer.drain_all (Handoff.path_reclaimer h.path) (fun b ->
        Alloc.free h.t.alloc ~tid:h.tid b))
end
