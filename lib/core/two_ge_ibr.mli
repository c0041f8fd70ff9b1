(** Two-global-epochs IBR (§3.3, Fig. 6): interval reservations whose upper endpoint tracks the global epoch observed while reading.

    Sealed to the common memory-manager signature of Fig. 1; see
    {!Tracker_intf.TRACKER} for the operations. *)

include Tracker_intf.TRACKER

module Unfenced : Tracker_intf.TRACKER
(** The literal Fig. 6 ordering of 2GEIBR — a deliberately UNSOUND
    demonstration variant whose pointer read escapes before its
    reservation is published.  Only [read] differs from the sound
    scheme; the fault checker catches it under adversarial
    schedules. *)
