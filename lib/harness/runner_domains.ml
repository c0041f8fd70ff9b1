(* The real-parallelism backend: the same tracker / data-structure
   code on OCaml 5 domains with monotonic wall-clock timing
   (microsecond units, the 1 cycle ~ 1 us convention) and no cost
   accounting (the [Hooks] handler stays a no-op).

   On the evaluation container (1 hardware core) this measures the
   schemes' native instruction overhead under preemptive interleaving
   rather than parallel speedup; its role in the reproduction is race
   stress (tests run it with 2–4 domains) and a hardware column for
   the robustness and service campaigns.

   The run loop is the backend-shared [Run_engine]; this module only
   carries the wall-clock configuration.  Fault profiles the backend
   can honor (stall storms, the parked-victim watchdog profile) run
   for real; profiles needing scheduler-injected crashes or virtual
   time raise [Runner_intf.Unsupported] instead of the old silent
   zeroed-gauge behavior. *)

type config = {
  threads : int;               (* domains *)
  duration_s : float;
  seed : int;
  tracker_cfg : Ibr_core.Tracker_intf.config;
  spec : Workload.spec;
  faults : Runner_intf.faults;
}

let default_config ?(threads = 4) ?(duration_s = 0.2) ?(seed = 0xd0e5)
    ?(faults = Runner_intf.No_faults) ~spec () =
  { threads; duration_s; seed;
    tracker_cfg = Ibr_core.Tracker_intf.default_config ~threads ();
    spec; faults }

let exec_of_config (cfg : config) =
  Run_engine.domains_exec ~threads:cfg.threads ~duration_s:cfg.duration_s
    ~seed:cfg.seed ~faults:cfg.faults ()

let engine_config (cfg : config) = {
  Run_engine.threads = cfg.threads;
  seed = cfg.seed;
  tracker_cfg = cfg.tracker_cfg;
  spec = cfg.spec;
  faults = cfg.faults;
}

let run_named ~tracker_name ~ds_name cfg =
  Run_engine.run_named ~exec:(exec_of_config cfg) ~tracker_name ~ds_name
    (engine_config cfg)
