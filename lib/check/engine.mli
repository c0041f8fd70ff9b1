(** Execution layer shared by every checking strategy: run one
    scenario under one schedule.

    Runs use a single simulated core, one-cost quanta, and suspension
    after every charged primitive, so each shared-memory primitive is
    exactly one dispatch decision; the cost model is pinned to
    {!Ibr_runtime.Cost.uniform} for the duration of a run so
    checked-in traces cannot drift when the calibrated model is
    re-tuned.  Faults are counted rather than raised, so a failing
    schedule runs to completion. *)

val check_config : Ibr_runtime.Sched.config

type result = {
  failure : string option;  (** [None] = the schedule passed *)
  decisions : int list;     (** chosen tid per dispatch, in order *)
  preemptions : int;        (** switches away from a still-runnable thread *)
  dispatches : int;
}

val run : Scenario.t -> decide:Ibr_runtime.Sched.decider -> result
(** One fresh run of the scenario, every dispatch decision taken from
    [decide].  An exception raised by [decide] abandons the run and is
    re-raised. *)

val default_choice : runnable:int array -> current:int -> int
(** The non-preemptive default schedule: continue the current thread;
    on its death the lowest-tid runnable one. *)

val decider_of_trace : Trace.t -> Ibr_runtime.Sched.decider
(** Consume the trace's segments (skipping segments naming finished
    threads), then fall back to {!default_choice}. *)

val replay : Scenario.t -> Trace.t -> result
(** Deterministic replay of a recorded schedule.
    @raise Invalid_argument if the trace's thread count does not match
    the scenario's. *)

val trace_of_decisions : Scenario.t -> int list -> Trace.t
(** Compress a recorded decision list into a segmented trace. *)
