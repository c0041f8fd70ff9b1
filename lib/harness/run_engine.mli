(** The shared run loop behind both runners (DESIGN.md §11).

    {!run} drives one closed-loop benchmark configuration —
    create/prefill, capacity sizing, worker fleet, background
    reclaimer, watchdog, shutdown quiescence, stats assembly — over a
    {!Runner_intf.exec} built by one of the two constructors here.
    Fault profiles whose required capabilities the backend lacks fail
    fast with {!Runner_intf.Unsupported}.

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

val run :
  exec:Runner_intf.exec ->
  tracker_name:string -> ds_name:string ->
  (module Ibr_ds.Ds_intf.RIDEABLE) -> config -> Stats.t
(** Run one configuration to completion and assemble its stats row
    ([backend] stamped from the exec).
    @raise Runner_intf.Unsupported if [config.faults] needs a
    capability the backend does not declare, or if {!Ibr_obs.Probe}
    tracing or histograms are on and the backend lacks ["probes"].
    @raise Invalid_argument if the mix draws on a capability the
    rideable does not export (the message lists capable rideables). *)

val run_named :
  exec:Runner_intf.exec ->
  tracker_name:string -> ds_name:string -> config -> Stats.t option
(** Resolve names through the tracker / data-structure registries;
    [None] if the pairing is incompatible. *)
