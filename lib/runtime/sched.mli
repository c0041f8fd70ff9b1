(** Deterministic discrete-event multiprocessor scheduler.

    Simulated threads are effect-handler coroutines; every
    shared-memory primitive calls {!Hooks.step}, which suspends the
    fiber so the scheduler can charge its cost and decide whether to
    keep the thread on its core.  The machine model has [cores]
    identical cores with next-free timestamps; threads beyond the
    core count queue — reproducing the paper's >72-thread
    oversubscription (stalled-reservation) regime.  Runs are
    bit-reproducible from the config. *)

type _ Effect.t += Step : unit Effect.t
(** Performed (via {!Hooks.step}) by code running inside a fiber. *)

type _ Effect.t += Crash : unit Effect.t
(** Performed by a fiber crashing itself ({!crash_self}); the handler
    abandons the continuation without unwinding, so cleanup handlers
    never run. *)

type _ Effect.t += Neutralize : int -> unit Effect.t
(** Performed by a fiber to flag another thread for neutralization
    ({!neutralize_peer}); the handler marks the victim and resumes the
    caller immediately. *)

exception Stopped
(** Raised into still-running fibers when the run ends so their
    cleanup handlers execute; thread bodies must not swallow it. *)

type config = {
  cores : int;              (** simulated hardware parallelism *)
  quantum : int;            (** cost units per scheduling quantum *)
  ctx_switch : int;         (** core-side cost of a thread switch *)
  stall_prob : float;       (** chance per quantum of an involuntary
                                stall; applied only when threads
                                outnumber cores *)
  stall_len : int;          (** virtual length of an injected stall *)
  crash_prob : float;       (** chance per quantum of a crash fault;
                                [0.0] disables injection (and draws
                                nothing from the PRNG, preserving
                                existing streams) *)
  max_crashes : int;        (** cap on injected crash faults per run *)
  perform_threshold : int;  (** min accumulated cost between
                                suspensions (interleaving granularity) *)
  seed : int;
}

val default_config : config
(** Calibrated to the paper's machine regime: 72 cores, quanta holding
    a few hundred operations, stalls an order of magnitude longer than
    the epoch period. *)

val test_config : ?cores:int -> ?seed:int -> unit -> config
(** Maximal interleaving: single-step suspensions, tiny quanta, no
    injected stalls. *)

type t

type decider = runnable:int array -> current:int -> int
(** A pluggable dispatch decision source (model checking / replay).
    Called at every dispatch point with the tids of the runnable
    threads in ascending order (never empty) and the tid of the
    previously dispatched thread ([-1] before the first dispatch);
    must return a member of [runnable].  With [quantum = 1] and
    [perform_threshold = 1] every shared-memory primitive becomes one
    decision point, which is how {!Ibr_check} enumerates
    interleavings.  Injected stalls are subsumed: a decider that
    withholds a thread has stalled it. *)

val create : config -> t

val set_decider : t -> decider -> unit
(** Install a decision source; subsequent dispatch choices (and quota
    of injected stall points) come from it instead of the
    earliest-ready policy and the PRNG.  Must be called before
    {!run}. *)

val spawn : t -> (int -> unit) -> int
(** [spawn t body] registers a thread; [body tid] runs when the
    scheduler dispatches it.  Returns the thread id.  Must be called
    before {!run}. *)

val spawn_service : t -> (int -> unit) -> int
(** {!spawn} for a service fiber (the watchdog, the background
    reclaimer).  It still draws its stall and crash chances from the
    PRNG, so the stream stays the one a worker would draw, but an
    injected stall or crash is never applied to it: a stall outlasts
    most runs, and a stalled or crashed watchdog or reclaimer would
    stop serving the workers for good. *)

val run : ?horizon:int -> t -> unit
(** Dispatch until every thread finishes or [horizon] (virtual
    wall-clock time) is reached; past the horizon remaining fibers are
    unwound with {!Stopped}.  Single-shot. *)

val stall : t -> int -> unit
(** Permanently prevent a thread from being dispatched (robustness
    experiments).  Unlike {!crash}, a stalled thread's fiber is still
    unwound with {!Stopped} when the run ends, so its cleanups run.
    May be called before the run or from inside another fiber. *)

val unstall : t -> int -> unit

val crash : t -> int -> unit
(** [crash t tid] delivers a crash fault: the thread is removed from
    dispatch and its continuation is abandoned {e without} unwinding —
    cleanup handlers never execute and any reservations it holds stay
    pinned forever (the DEBRA+/NBR crash model; contrast {!stall}).
    Crashing the calling thread kills it at this very point; crashing
    an already-finished thread is a no-op.  May be called before the
    run, from inside a fiber, or from a {!decider} callback. *)

val crash_self : unit -> unit
(** Crash the calling fiber at this program point (performs {!Crash});
    only valid inside a simulated thread. *)

val neutralize : t -> int -> unit
(** [neutralize t tid] flags a thread for neutralization (the DEBRA+
    restart signal; contrast {!crash}).  The victim observes
    {!Hooks.Neutralized} at its next resumption whose restart window
    is open ({!Hooks.restart_window}): [Ds_common.with_op] then drops
    its reservations, re-protects, and retries the interrupted
    operation from scratch — the thread keeps working.  A signal sent
    while the window is masked stays pending until the next open
    resumption.  Delivery is deterministic given the run's schedule.
    No-op on crashed or finished threads. *)

val neutralize_peer : int -> unit
(** {!neutralize} targeting [tid] from inside a simulated thread
    (performs {!Neutralize}); only valid inside a fiber. *)

val crashes : t -> int
(** Crash faults delivered so far (injected plus explicit). *)

val publish_crashes : t -> unit
(** Publish {!crashes} to the ["crashes"] metric gauge (end of run). *)

val crashed : t -> int -> bool

val makespan : t -> int
(** Virtual completion time of the run (max over cores). *)

val thread_vtime : t -> int -> int
(** Total virtual cycles executed by one thread. *)

val thread_quanta : t -> int -> int
(** Number of scheduling quanta a thread received. *)

val run_threads :
  ?cfg:config -> ?horizon:int -> n:int ->
  (tid:int -> index:int -> unit) -> t
(** Convenience: create, spawn [n] threads, run, return the
    scheduler. *)
