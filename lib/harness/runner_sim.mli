(** The simulator backend: run one (tracker x rideable x threads x
    workload) configuration on the discrete-event machine.

    Methodology follows §5: prefill, then a fixed-duration
    free-for-all in which each thread samples its local
    retired-but-unreclaimed count at every operation start (Fig. 9)
    while completions are counted for throughput (Fig. 8).  Threads
    beyond the core count queue for cores, reproducing the paper's
    oversubscription regime.

    A {!Runner_intf.faults} profile layers crash faults, an allocator
    capacity sized from the post-prefill working set, and the ejection
    {!Watchdog} on top (DESIGN.md §7).  The run loop itself is the
    backend-shared {!Run_engine}; this module owns the scheduler knobs
    each profile implies and the machine construction. *)

type config = {
  threads : int;
  horizon : int;                 (** virtual run length *)
  sched : Ibr_runtime.Sched.config;
  seed : int;
  tracker_cfg : Ibr_core.Tracker_intf.config;
  spec : Workload.spec;
  faults : Runner_intf.faults;
}

val default_config :
  ?threads:int -> ?horizon:int -> ?seed:int -> ?cores:int ->
  ?faults:Runner_intf.faults -> spec:Workload.spec -> unit -> config

val sched_config : config -> Ibr_runtime.Sched.config
(** The scheduler knobs the fault profile implies (crash profiles zero
    [stall_prob], etc.). *)

val run_named :
  tracker_name:string -> ds_name:string -> config -> Stats.t option
(** Resolve names through the registries; [None] if the pairing is
    incompatible (e.g. POIBR on a mutable-pointer structure). *)
