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

    This module holds the arrivals and the churn; the run itself is
    {!Run_engine.drive}, with the open-loop workers as its driver, and
    it returns a {!Stats.t} row like a closed-loop run.

    Same seed and config ⇒ a bit-identical row (certified by
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

val fleet : int -> int
(** [fleet threads = threads + 2]: the workers sharing [threads]
    census slots, so attach contention and slot reuse happen
    constantly.  Each serves sessions of 40 requests and stays away
    2,000 cycles (microseconds on domains) between them. *)

val rate_permille : horizon:int -> t:int -> int
(** Arrival-rate modulation at virtual time [t], in permille of the
    base rate — all-integer: a diurnal tent from 600 at the run's
    edges to 1500 mid-run, tripled inside two evenly spaced spike
    windows of 2% of [horizon]. *)

val gen_arrivals : seed:int -> horizon:int -> int array
(** The precomputed arrival schedule: non-decreasing timestamps under
    [horizon], at most one per cycle. *)

val serve :
  exec:Runner_intf.exec -> horizon:int ->
  watchdog:(int * int * bool) option -> tracker_name:string ->
  ds_name:string -> (module Ibr_ds.Ds_intf.RIDEABLE) -> Run_engine.config ->
  Stats.t
(** One full service run on a fresh instance over [exec] (built for
    [fleet cfg.threads] workers; {!Campaign.run} builds it from a
    point).  Prefills through a temporary attach/detach, spawns the
    fleet plus the background reclaimer (if the tracker has one) and
    the optional [(period, grace, neutralize)] census-aware watchdog,
    runs to [horizon], and returns the row: [threads] is the census
    capacity, [ops] the completed requests, and the unreclaimed count
    is sampled at the start of every request.  Each request calls
    [exec.worker_tick] once, so on a {!Run_engine.domains_exec} a
    stall storm stalls service workers as it does closed-loop ones;
    there the same precomputed arrival schedule plays out against the
    monotonic wall clock (microsecond units — [horizon], the gap
    between sessions and the SLO's latency targets carry over under
    the 1 cycle ~ 1 us convention).  The restart signal of a
    neutralizing watchdog goes to the worker holding the stale slot,
    not to the worker whose tid equals the slot.

    The service's figures are registry columns: the [svc_latency]
    histogram, and the [svc_fleet], [svc_arrivals], [svc_aborted],
    [svc_attaches], [svc_detaches], [svc_attach_full], [svc_p999] and
    [svc_slo_pass] gauges.  They register with the watchdog's gauges
    at the first run, never at module init, so binaries that do not
    run a service keep their CSV layout.
    @raise Invalid_argument if [cfg.faults] is neither
    {!Runner_intf.No_faults} nor a [Stall_storm] (the message names
    the profile), or if [cfg.threads < 1]; both before any column
    registers.
    @raise Runner_intf.Unsupported as {!Run_engine.drive}. *)

val slo_failures : Stats.t -> string list
(** The {!slo} checks a service row fails, each as
    ["p99 70000 > 60000"]; [[]] when it passes.  The row's
    [svc_slo_pass] column is this check. *)

val pp_slo : Format.formatter -> Stats.t -> unit
(** One line: each check as actual/target (latencies in cycles on the
    simulator, microseconds on domains), then [PASS] or
    [FAIL [failures]]. *)
