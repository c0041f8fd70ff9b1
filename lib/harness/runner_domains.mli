(** The real-parallelism backend: the same tracker / data-structure
    code on OCaml 5 domains, timed with the monotonic wall clock in
    microsecond units, with the cost hooks inactive.  Used for race
    stress tests and as the hardware column of the robustness and
    service campaigns.

    Runs through the backend-shared {!Run_engine}.  Fault profiles
    this backend supports (["stall-storm"], ["stall+watchdog"]) are
    injected for real — sleeps and a wall-clock watchdog; profiles
    needing scheduler-injected crashes raise
    {!Runner_intf.Unsupported}, and so does a run with
    {!Ibr_obs.Probe} tracing or histograms on. *)

type config = {
  threads : int;            (** domains *)
  duration_s : float;
  seed : int;
  tracker_cfg : Ibr_core.Tracker_intf.config;
  spec : Workload.spec;
  faults : Runner_intf.faults;
}

val default_config :
  ?threads:int -> ?duration_s:float -> ?seed:int ->
  ?faults:Runner_intf.faults -> spec:Workload.spec -> unit -> config

val run_named :
  tracker_name:string -> ds_name:string -> config -> Stats.t option
