(** Open-loop service simulation with dynamic thread churn
    (DESIGN.md §10).

    Models a long-running service rather than a closed-loop
    microbenchmark: requests arrive on a precomputed Poisson schedule
    (diurnal ramp + load spikes), keys are Zipf-skewed, and a fleet of
    worker fibers join and leave the tracker census through
    {!Ibr_ds.Ds_intf.RIDEABLE.attach}/[detach] while serving.  Per-request
    latency is measured arrival-to-completion (queueing included), and
    each run is held to one {!slo} over p50/p99/p999 latency and peak
    allocator footprint.

    This module holds the profiles, the arrivals and the churn; the run
    itself is {!Run_engine.drive}, with the open-loop workers as its
    driver, and it returns a {!Stats.t} row like a closed-loop run.

    Same seed and profile ⇒ a bit-identical row (certified by
    [test_service]). *)

(** Latency targets in virtual cycles (microseconds on domains),
    footprint in blocks. *)
type slo = {
  p50 : int;
  p99 : int;
  p999 : int;
  peak_footprint : int;
}

val slo : slo
(** The one SLO every service run is held to. *)

type profile = {
  workers : int;       (** census capacity (tracker slot count) *)
  fleet : int;         (** worker fibers sharing the slots *)
  cores : int;
  horizon : int;
  seed : int;
  diurnal : bool;      (** ×0.6 rate at the edges, ×1.5 mid-run *)
  spikes : int;        (** evenly spaced ×3 windows, 2% of horizon *)
  session_ops : int;   (** requests served per attached session *)
  away : int;          (** cycles detached between sessions *)
  watchdog : (int * int) option;  (** [(period, grace)] *)
  neutralize : bool;
  (** Watchdog remedy: [false] ejects a stalled worker (it is lost for
      the rest of its session), [true] delivers a restart signal and
      lets it recover in place (DESIGN.md §12). *)
  spec : Workload.spec;
  tracker_cfg : Ibr_core.Tracker_intf.config;
}

val default_profile :
  ?workers:int -> ?fleet:int -> ?cores:int -> ?horizon:int -> ?seed:int ->
  ?diurnal:bool -> ?spikes:int -> ?session_ops:int -> ?away:int ->
  ?watchdog:int * int -> ?neutralize:bool -> spec:Workload.spec -> unit ->
  profile

val rate_permille : profile -> t:int -> int
(** Arrival-rate modulation at virtual time [t], in permille of the
    base rate — all-integer (diurnal tent and spike windows), exposed
    for tests. *)

val gen_arrivals : profile -> int array
(** The precomputed arrival schedule: non-decreasing timestamps under
    [horizon], at most one per cycle.  A function of the profile's
    [seed], [horizon], [diurnal] and [spikes]. *)

val run_named :
  tracker_name:string -> ds_name:string -> profile -> Stats.t option
(** One full service run on a fresh instance, on the simulator built
    from the profile's [cores] and [seed].  Prefills through a
    temporary attach/detach, spawns [fleet] workers plus the
    background reclaimer (if the tracker has one) and the optional
    watchdog, runs to [horizon], and returns the row: [threads] is
    [workers], [ops] the completed requests, and the unreclaimed
    count is sampled at the start of every request.  The service's
    figures are registry columns: the [svc_latency] histogram, and the
    [svc_fleet], [svc_arrivals], [svc_aborted], [svc_attaches],
    [svc_detaches], [svc_attach_full], [svc_p999] and [svc_slo_pass]
    gauges.  They register with the watchdog's gauges at the first
    run, never at module init, so binaries that do not run a service
    keep their CSV layout.  [None] if the tracker cannot run this
    rideable (see {!Ibr_ds.Ds_intf.RIDEABLE.compatible}).
    @raise Invalid_argument on unknown names, or on non-positive
    [workers], [fleet] or [session_ops]. *)

val run_named_exec :
  exec:Runner_intf.exec -> tracker_name:string -> ds_name:string ->
  profile -> Stats.t option
(** {!run_named} over an explicit backend.  On a
    {!Run_engine.domains_exec} the same precomputed arrival schedule
    plays out against the monotonic wall clock (microsecond units —
    [horizon], [away] and the SLO's latency targets carry over under
    the 1 cycle ~ 1 us convention) with real attach/detach churn
    across domains.
    @raise Runner_intf.Unsupported if the backend lacks the
    ["service"] capability, or ["probes"] while {!Ibr_obs.Probe}
    tracing or histograms are on. *)

val slo_failures : Stats.t -> string list
(** The {!slo} checks a service row fails, each as
    ["p99 70000 > 60000"]; [[]] when it passes.  The row's
    [svc_slo_pass] column is this check. *)

val pp_slo : Format.formatter -> Stats.t -> unit
(** One line: each check as actual/target (latencies in cycles on the
    simulator, microseconds on domains), then [PASS] or
    [FAIL [failures]]. *)
