(* DEBRA (Brown, "Reclaiming memory for lock-free data structures:
   there has to be a better way", PODC 2015): epoch-based reclamation
   with per-thread limbo bags and *amortized* epoch announcements.

   Two differences from the plain EBR of §2.2:

   - Announcement amortization: a thread re-reads the global epoch
     only every [announce_freq] operations, re-publishing a cached
     value in between.  A cached announcement is at most stale —
     i.e. smaller — which only makes the reservation *more*
     conservative (it pins a superset), so soundness is unaffected
     while the hot path drops the shared epoch load.  Per-operation
     publication and clearing are kept: the reservation slot still
     goes quiescent ([max_int]) at every [end_op], exactly like EBR.

   - Limbo bags: retired blocks go into epoch-bucketed limbo lists
     (the [Buckets] reclaimer backend) rather than a flat list — a
     bag whose epoch precedes every announcement frees as a unit.
     A caller-chosen [Gated] backend is respected; only the default
     flat [List] is remapped.

   DEBRA alone is not robust — a stalled thread still pins everything
   retired after its announcement.  The neutralization that makes it
   robust (DEBRA+) lives in [Debra_plus]; the recovery behaviour is
   the functor parameter below.  The reservation table, its threshold
   sweep and the hot path are otherwise EBR's. *)

module type RECOVERY = sig
  val name : string
  val summary : string

  val invalidate_cache_on_recover : bool
  (* DEBRA+ promptness: a neutralized thread forgets its cached epoch
     so the restarted operation announces a fresh one, unpinning
     everything the stale announcement held. *)

  val reprotect_on_recover : bool
  (* The soundness half of recovery: re-run [start_op] before the
     operation retries.  [false] is the deliberately unsound
     debra-norestart oracle — the retry runs with a quiescent
     reservation and the model checker exhibits its use-after-free. *)
end

(* Operations per fresh shared-epoch read.  Brown checks the epoch
   every ~100 operations; scaled down like [epoch_freq] so several
   announcement periods fit one simulated run.  1 would announce per
   operation, as classic EBR does. *)
let announce_freq = 8

(* Per-handle state: the cached announcement and the slot it is
   published in. *)
type announcement = {
  mutable announce_left : int; (* fresh epoch read when this hits 0 *)
  mutable cached : int;        (* last announced epoch; -1 = none yet *)
  cell : int Atomic.t;         (* this thread's reservation *)
}

module Policy (R : RECOVERY) = struct
  open Tracker_kernel

  let name = R.name
  let props = { Ebr.Policy.props with summary = R.summary }

  include Default_hooks
  include Plain_ops

  type 'a res = int Atomic.t array

  type 'a state = announcement

  let epoch = Ebr.Policy.epoch
  let create_res = Ebr.Policy.create_res
  let create_state t ~tid =
    { announce_left = 0; cached = -1; cell = t.res.(tid) }
  let source = Ebr.Policy.source
  let clear = Ebr.Policy.clear

  (* Limbo bags are the scheme: remap the default flat list to the
     epoch-bucketed backend (an explicit [Gated] choice stands). *)
  let retire_backend = function
    | Reclaimer.List -> Reclaimer.Buckets
    | (Reclaimer.Buckets | Reclaimer.Gated) as b -> b

  (* The amortized announcement: a fresh shared-epoch read only every
     [announce_freq] operations; in between, re-publish the cached
     value for the cost of a local decrement.  Staleness is bounded
     by one announcement period and errs conservative.  (The retire
     tag, stamped by the kernel, is never amortized: a stale, smaller
     epoch there would let a bag free early.) *)
  let announce_epoch h =
    let st = h.st in
    if st.cached < 0 || st.announce_left <= 0 then begin
      st.announce_left <- announce_freq;
      st.cached <- Epoch.read h.t.epoch
    end
    else Prim.local 1;
    st.announce_left <- st.announce_left - 1;
    st.cached

  let start_op h =
    Prim.write h.st.cell (announce_epoch h);
    Ibr_obs.Probe.reserve ~slot:0

  let end_op h =
    Prim.write h.st.cell max_int;
    Ibr_obs.Probe.unreserve ~slot:0

  (* Neutralization recovery after the kernel's self-expiry: (DEBRA+)
     forget the cached epoch for a prompt fresh announcement, then
     (every sound variant) re-protect as a fresh [start_op]. *)
  let resume h =
    if R.invalidate_cache_on_recover then begin
      h.st.cached <- -1;
      h.st.announce_left <- 0
    end;
    if R.reprotect_on_recover then start_op h
end

module Make (R : RECOVERY) = Tracker_kernel.Make (Policy (R))

include Make (struct
    let name = "DEBRA"
    let summary =
      "EBR with amortized announcements (fresh epoch read every k ops) \
       and epoch-bucketed limbo bags; fast, not robust alone"
    let invalidate_cache_on_recover = false
    let reprotect_on_recover = true
  end)
