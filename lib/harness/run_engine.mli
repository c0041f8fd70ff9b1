(** The one run loop (DESIGN.md §11).

    {!drive} writes each step of a run once — the capability gates,
    create and prefill, capacity sizing, the background-reclaimer
    thread, the watchdog (either remedy), the handoff pre-drain, the
    metrics baseline, launch, the shutdown flush and the gauges — over
    a {!Runner_intf.exec} built by one of the two constructors here.
    What differs between kinds of run is a {!driver}: how it gets its
    prefill handle, its worker bodies, and the census view its
    watchdog reads.  {!run} is the closed-loop driver (the paper's
    microbenchmark); [Service] is the open-loop one.  Fault profiles
    whose required capabilities the backend lacks fail fast with
    {!Runner_intf.Unsupported}.

    Time units follow the 1 virtual cycle ~ 1 microsecond convention,
    so period-like knobs (watchdog period, stall length, service
    horizons) mean the same thing on either backend. *)

type config = {
  threads : int;
  seed : int;
  tracker_cfg : Ibr_core.Tracker_intf.config;
  spec : Workload.spec;
  faults : Runner_intf.faults;
}

val sim_caps : Runner_intf.capabilities
val domains_caps : Runner_intf.capabilities

val sim_exec : sched:Ibr_runtime.Sched.t -> horizon:int -> Runner_intf.exec
(** Wrap a discrete-event machine.  The engine's calls through this
    exec replay the original simulator runner exactly (same step and
    PRNG sequences), keeping traced runs and the golden CSV
    byte-identical. *)

val domains_exec :
  threads:int -> duration_s:float -> seed:int ->
  faults:Runner_intf.faults -> unit -> Runner_intf.exec
(** Real [Domain.t]s under monotonic wall-clock time (microsecond
    units).  [threads] sizes the per-worker tick state; [faults]
    selects the wall-clock fault injection [worker_tick] performs
    (stall storms as real sleeps).  Workers observe the [duration_s]
    deadline through [worker_tick]/[worker_running]; service threads
    run until every worker has joined.

    Only [Stall_neutralize] arms neutralization rails: its workers run
    under a {!Ibr_runtime.Hooks.with_handler} that polls them.  Under
    any other profile no handler is installed (the primitives stay on
    their dispatch-free path) and the exec does not declare the
    [neutralize] capability, so a neutralizing watchdog fails fast. *)

val check_caps :
  ds_name:string -> (module Ibr_ds.Ds_intf.RIDEABLE) -> Workload.mix -> unit
(** Fail fast ([Invalid_argument]) when the mix draws on a capability
    the rideable does not export; the message names the missing
    capability and the rideables that could run the mix. *)

val dispatch :
  (module Ibr_ds.Ds_intf.RIDEABLE with type handle = 'h) -> Workload.spec ->
  'h -> Workload.op -> int -> bool
(** [dispatch (module S) spec] is the one dispatch over
    {!Workload.op}: [perform h op key] runs [op] on [key] through [h]
    and answers [true] when it completed, [false] when it aborted on
    an exhausted heap.  Build it once per run: each call then
    allocates nothing beyond what the operation itself does. *)

val park : Runner_intf.exec -> unit
(** Idle out the rest of the run (a worker with nothing left to do). *)

type 'h driver = {
  prefill : ('h -> unit) -> unit;
  (** [prefill fill]: take the handle the prefill inserts through,
      call [fill] with it, and release it. *)
  spawn_workers : ('h -> Workload.op -> int -> bool) -> unit;
  (** Register the worker bodies with [exec.spawn], given the
      {!dispatch}. *)
  active : int -> bool;
  progress : int -> int;
  occupant : int -> int;
  (** The census view the watchdog reads: whether a slot has an
      occupant, its monotone attempt counter, and the [exec.spawn] tid
      of the worker holding it, which a restart signal for the slot
      must reach. *)
}

type outcome = {
  makespan : int;
  baseline : Ibr_obs.Metrics.baseline;
  (** taken at launch; {!Ibr_obs.Metrics.collect} it once the driver
      has published its own gauges *)
}

val drive :
  exec:Runner_intf.exec -> ds_name:string ->
  (module Ibr_ds.Ds_intf.RIDEABLE with type t = 't and type handle = 'h) ->
  config -> watchdog:(int * int * bool) option ->
  ('t -> 'h driver) -> outcome
(** Run one configuration: the structure is created with
    [config.threads] census slots, handed to the driver, prefilled,
    and run to completion with the driver's workers, then the
    reclaimer and the optional [(period, grace, neutralize)]
    watchdog.
    @raise Runner_intf.Unsupported if the backend lacks a capability
    [config.faults] requires, or ["probes"] while {!Ibr_obs.Probe}
    tracing or histograms are on.
    @raise Invalid_argument if the mix draws on a capability the
    rideable does not export (the message lists capable rideables). *)

val run :
  exec:Runner_intf.exec ->
  tracker_name:string -> ds_name:string ->
  (module Ibr_ds.Ds_intf.RIDEABLE) -> config -> Stats.t
(** The closed loop: [config.threads] workers pick an op and a key and
    repeat, sampling their unreclaimed count at every operation; the
    row's [backend] is stamped from the exec.  Raises as {!drive}. *)

val resolve :
  tracker_name:string -> ds_name:string ->
  (string * (module Ibr_ds.Ds_intf.RIDEABLE)) option
(** The registered tracker name and the rideable instantiated over
    it; [None] if the pairing is incompatible.
    @raise Invalid_argument on unknown names. *)
