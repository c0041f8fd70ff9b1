(** Ejection/neutralization watchdog (DEBRA+/NBR-style; DESIGN.md §7,
    §12).

    A monitor thread that detects workers making no progress and
    applies a {!remedy}: {!Eject} expires the victim's reservations
    through the tracker's [eject] hook so a crash-faulted thread stops
    pinning retired memory forever; {!Neutralize} instead delivers a
    restart signal that the victim acts on itself — it unwinds its
    current attempt, recovers its protection, and keeps working.
    {!spawn} runs the monitor on any {!Runner_intf.exec}: a fiber on
    the simulator, a real monitor domain with wall-clock periods on
    the domains backend.

    {b Soundness caveat (ejection only):} no-progress is a heuristic
    for death.  Ejecting a live thread readmits use-after-free;
    [grace * period] must exceed the longest legitimate dispatch gap,
    and profiles that arm an ejecting watchdog must not also inject
    stalls.  Neutralizing a live thread is sound — it merely restarts
    an attempt — so the neutralize profiles may keep stalls on.  See
    {!Ibr_core.Tracker_intf.TRACKER.eject}. *)

type t

type remedy =
  | Eject
      (** Expire the victim's reservations and write it off (it is
          re-armed if its counter ever moves again). *)
  | Neutralize of (int -> unit)
      (** [Neutralize deliver]: call [deliver tid] to send the victim
          a restart signal ({!Ibr_core.Fault.Neutralized} at its next
          delivery point); keep monitoring, count a recovery when its
          counter moves again, and re-deliver after another full
          grace window if it stays frozen. *)

val spawn :
  exec:Runner_intf.exec ->
  period:int ->
  grace:int ->
  threads:int ->
  ?remedy:remedy ->
  ?active:(int -> bool) ->
  progress:(int -> int) ->
  eject:(int -> unit) ->
  unit -> t
(** [spawn ~exec ~period ~grace ~threads ~progress ~eject ()]
    registers the monitor as a service thread of [exec] (must precede
    its [launch]).  Every [period] backend time units — virtual cycles
    on the sim, microseconds of monotonic wall clock on domains — it
    polls [progress tid] (a monotone per-worker operation counter) for
    each of the [threads] workers; a worker that completed at least
    one operation and then stalls at the same count for [grace]
    consecutive checks receives the [remedy] (default {!Eject}).  On
    domains the counters are read racily: a stale read delays a remedy
    by one round, which the grace budget absorbs.

    [active] (default: always true) reports whether a census slot
    currently has an occupant (dynamic churn, DESIGN.md §10): an
    inactive slot is not monitored and its arming/staleness/ejection
    state is reset, so a joiner that reuses the slot is watched from
    scratch instead of being ejected against the leaver's counter.
    @raise Invalid_argument if [period < 1] or [grace < 1].
    @raise Runner_intf.Unsupported if the remedy is {!Neutralize}
    and the backend lacks the ["neutralize"] capability. *)

val ejections : t -> int
(** Workers ejected so far. *)

val neutralizations : t -> int
(** Restart signals delivered so far. *)

val recovered : t -> int
(** Neutralized workers whose progress counter has moved again — the
    signals that demonstrably healed the thread instead of killing
    it. *)

val ejected : t -> int -> bool
val neutralized : t -> int -> bool
(** A signal was delivered to this slot and its recovery is pending
    (the counter has not moved since). *)

val publish : t -> unit
(** Publish {!ejections} to the ["ejections"] metric gauge (end of
    run), plus ["neutralizations"]/["recovered"] for a {!Neutralize}
    watchdog (those gauges are registered lazily at the first
    neutralize-watchdog creation or {!register_gauges}, so runs that
    do neither keep the legacy CSV layout). *)

val register_gauges : unit -> unit
(** Register the ["neutralizations"]/["recovered"] gauges now (the
    service does at its first run, so its rows have the same columns
    whether or not a neutralizing watchdog ran before). *)
