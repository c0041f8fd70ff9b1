(** Epoch-based reclamation (paper §2.2, Fig. 2): one epoch reservation per thread; fast, not robust.

    Sealed to the common memory-manager signature of Fig. 1; see
    {!Tracker_intf.TRACKER} for the operations. *)

include Tracker_intf.TRACKER

module Policy :
  Tracker_kernel.POLICY
  with type 'a res = int Atomic.t array
   and type 'a state = int Atomic.t
(** EBR's reservation policy, whose table and threshold sweep DEBRA
    reuses. *)

module Noflush : Tracker_intf.TRACKER
(** Intentionally unsound EBR whose [detach] frees its pending
    retirements without the final guarded sweep — the detach-without-
    flush lifecycle bug the [thread_churn] scenario exists to catch.
    Demonstration oracle only; not in {!Registry.all}. *)
