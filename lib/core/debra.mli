(** DEBRA (Brown, PODC 2015): epoch-based reclamation with amortized
    epoch announcements (a fresh shared-epoch read only every
    [announce_freq] operations; the cached value is re-published in
    between, which errs conservative) and per-thread epoch-bucketed
    limbo bags.  Fast — the hot path drops the shared epoch load —
    but not robust alone; the neutralization that heals stalled
    threads is {!Debra_plus}.

    Sealed to the common memory-manager signature of Fig. 1. *)

include Tracker_intf.TRACKER

val announce_freq : int
(** Operations per fresh shared-epoch read: 8. *)

(** The recovery behaviour distinguishing DEBRA, DEBRA+ and the
    unsound norestart oracle; see the [.ml] for the soundness notes. *)
module type RECOVERY = sig
  val name : string
  val summary : string

  val invalidate_cache_on_recover : bool
  (** forget the cached epoch on neutralization (DEBRA+ promptness) *)

  val reprotect_on_recover : bool
  (** re-run [start_op] before the retry ([false] = the unsound
      debra-norestart oracle) *)
end

module Make (R : RECOVERY) : Tracker_intf.TRACKER
