(* The benchmark's workloads, and the leg that runs one of them.

   A leg is one [Run_engine.run] of one scheme on one backend, driven
   through the [Timed] wrappers and checked afterwards; a benchmark run
   is a list of legs.  Every workload is a closed loop: each worker
   issues its next operation when the last one returns. *)

open Ibr_runtime
open Ibr_core
open Ibr_ds
open Ibr_harness

type workload = {
  name : string;
  why : string;
  ds : string;
  spec : Workload.spec;
  background : bool;  (* retire through Handoff to a reclaimer thread *)
  sim_threads : int;
  sim_cores : int;
  sim_horizon : int;  (* virtual cycles *)
  sim_faults : Runner_intf.faults;
  sim_reps : int;  (* sim legs per scheme, each on its own seed *)
  domain_workers : int;
}

(* EBR, the fast epoch baseline; HE, the robust per-pointer baseline;
   2GEIBR, the paper's scheme. *)
let schemes = [ "EBR"; "HE"; "2GEIBR" ]

let hashmap_a =
  { Workload.key_range = 16384; prefill_fraction = 0.75;
    mix = Workload.profile_a }

(* Sim horizons and legs per scheme are sized so that the medians hold
   steady across seeds within a run's budget.  The scan tree retires
   rarely, so its legs run longer; the stall-storm EBR leg slows
   superlinearly with its horizon (its reclaimer fiber starves while
   the retired backlog grows), so that horizon stays short. *)
let workloads = [
  { name = "write-hashmap";
    why =
      "every op allocates or retires, so allocator, epoch and reclaimer do \
       most of the non-traversal work; hash chains are short";
    ds = "hashmap"; spec = hashmap_a;
    background = false; sim_threads = 8; sim_cores = 8;
    sim_horizon = 400_000; sim_faults = Runner_intf.No_faults;
    sim_reps = 5; domain_workers = 2 };
  { name = "scan-nmtree";
    why =
      "traversal-bound: tracker reads and reservations held across long \
       range scans dominate and retires are rare, so allocator and \
       reclaimer changes should not move it";
    ds = "nmtree";
    spec =
      { Workload.key_range = 4096; prefill_fraction = 0.75;
        mix = Workload.profile_e };
    background = false; sim_threads = 8; sim_cores = 8;
    sim_horizon = 2_000_000; sim_faults = Runner_intf.No_faults;
    sim_reps = 10; domain_workers = 2 };
  (* Stalls on Domains would fall between ops and pin nothing, so that
     leg runs the mix without them: one worker plus the reclaimer
     domain. *)
  { name = "stall-hashmap";
    why =
      "the same retire path used differently: retires go through the \
       handoff queues and sweeps run off-thread against reservations \
       pinned by stalled readers";
    ds = "hashmap"; spec = hashmap_a;
    background = true; sim_threads = 16; sim_cores = 8;
    sim_horizon = 200_000;
    sim_faults = Option.get (Runner_intf.faults_of_string "stall-storm");
    sim_reps = 8; domain_workers = 1 };
]

let find name = List.find_opt (fun w -> w.name = name) workloads

let shape w =
  Printf.sprintf
    "%s, mix %s, %d keys, closed loop; sim %d threads on %d cores for %d \
     cycles%s, %d legs per scheme; domains %d worker(s)%s"
    w.ds
    (Workload.mix_name w.spec.mix)
    w.spec.key_range w.sim_threads w.sim_cores w.sim_horizon
    (if w.sim_faults = Runner_intf.No_faults then ""
     else ", " ^ Runner_intf.faults_name w.sim_faults)
    w.sim_reps w.domain_workers
    (if w.background then " + reclaimer" else "")

(* The seed of a workload's [rep]th sim leg. *)
let rep_seed seed rep = if rep = 0 then seed else Hashtbl.hash (seed, rep)

type backend = Sim | Domains of float  (* measured seconds *)

type leg = {
  scheme : string;
  backend : backend;
  traced : bool;
  stats : Stats.t;
  setup_s : float;
  wall_s : float;  (* the whole leg: set-up, measured phase, shutdown *)
  attempted : int;
  failed : int;
  problems : string list;
  accs : Spans.acc array;  (* per worker slot *)
  total : Spans.acc;
  service : Spans.service;
  alloc : Alloc.stats * Alloc.stats;  (* at the first measured op, at the end *)
  epochs : int;  (* epoch advances over the measured phase *)
  charges : (Ibr_obs.Probe.cost_kind * int) list;
  (* cost-model cycles per primitive kind (traced sim legs) *)
  minor_words : float;  (* words allocated over the measured phase (sim) *)
  worker_cycles : int;  (* the workers' executed cycles (sim) *)
  residue : int;  (* cycles of the ops the horizon unwound (sim) *)
}

exception Leg_failed of string

let tracker_cfg w ~threads =
  { (Tracker_intf.default_config ~threads ()) with
    background_reclaim = w.background }

let sim_config w ~seed =
  { (Runner_sim.default_config ~threads:w.sim_threads ~horizon:w.sim_horizon
       ~seed ~cores:w.sim_cores ~faults:w.sim_faults ~spec:w.spec ())
    with tracker_cfg = tracker_cfg w ~threads:w.sim_threads }

type base = {
  alloc0 : Alloc.stats;
  epoch0 : int;
  charges0 : (Ibr_obs.Probe.cost_kind * int * int) list;
  words0 : float;
}

let charge_delta c0 c1 =
  List.map
    (fun (k, _, cycles) ->
      let before =
        List.fold_left (fun b (k', _, c) -> if k' = k then c else b) 0 c0
      in
      (k, cycles - before))
    c1

let run w ~scheme ~backend ~traced ~seed =
  let entry = Registry.find_exn scheme in
  let tracker : Tracker_intf.packed =
    if traced then
      let module T = (val entry.tracker : Tracker_intf.TRACKER) in
      (module Timed.Tracker (T) : Tracker_intf.TRACKER)
    else entry.tracker
  in
  let (module S : Ds_intf.RIDEABLE) =
    (Ds_registry.find_exn w.ds).instantiate tracker
  in
  if not (S.compatible (Registry.props entry)) then
    raise (Leg_failed (Printf.sprintf "%s cannot run on %s" scheme w.ds));
  let module R = Timed.Rideable (S) in
  let sched, exec, (cfg : Run_engine.config) =
    match backend with
    | Sim ->
      let rc = sim_config w ~seed in
      let sched = Sched.create (Runner_sim.sched_config rc) in
      ( Some sched,
        Run_engine.sim_exec ~sched ~horizon:rc.horizon,
        { threads = rc.threads; seed; tracker_cfg = rc.tracker_cfg;
          spec = rc.spec; faults = rc.faults } )
    | Domains seconds ->
      let threads = w.domain_workers in
      let faults = Runner_intf.No_faults in
      ( None,
        Run_engine.domains_exec ~threads ~duration_s:seconds ~seed ~faults (),
        { threads; seed; tracker_cfg = tracker_cfg w ~threads;
          spec = w.spec; faults } )
  in
  let sim = Option.is_some sched in
  Gc.full_major ();
  Spans.init ~threads:cfg.threads ~sim;
  let base = ref None in
  Spans.on_begin :=
    (fun () ->
      let t = Option.get !R.captured in
      base :=
        Some
          { alloc0 = S.allocator_stats t; epoch0 = S.epoch_value t;
            charges0 = Ibr_obs.Probe.charges (); words0 = Gc.minor_words () });
  (* Cost-model attribution; its bookkeeping is not domain-safe, and
     probes never step, so it stays on the simulator. *)
  let hist = sim && traced in
  if hist then Ibr_obs.Probe.enable_hist ();
  let t0 = Monotonic.now_ns () in
  let result, faults =
    Fault.with_counting_result (fun () ->
      Run_engine.run ~exec ~tracker_name:scheme ~ds_name:w.ds (module R) cfg)
  in
  let wall_s = float_of_int (Monotonic.now_ns () - t0) /. 1e9 in
  let words1 = Gc.minor_words () in
  let charges1 = Ibr_obs.Probe.charges () in
  if hist then Ibr_obs.Probe.stop ();
  (* Copy the spans before the checks: a structure's sequential dump
     registers slot 0 again and calls the tracker through the wrapper. *)
  let accs = Array.map (fun (a : Spans.acc) -> { a with ops = a.ops }) !Spans.accs in
  let vtime tid =
    match sched with Some s -> Sched.thread_vtime s tid | None -> 0
  in
  (* A drain the horizon cut short counts up to the reclaimer fiber's
     last cycle (it is spawned after the workers: tid [threads]). *)
  let service = { Spans.service with drains = Spans.service.drains } in
  if service.open_start >= 0 then begin
    service.drain_time <-
      service.drain_time + vtime cfg.threads - service.open_start;
    service.drains <- service.drains + 1
  end;
  let stats =
    match result with
    | Ok s -> s
    | Error e ->
      raise
        (Leg_failed
           (Printf.sprintf "%s on %s raised %s" scheme w.ds
              (Printexc.to_string e)))
  in
  let base =
    match !base with
    | Some b -> b
    | None -> raise (Leg_failed (scheme ^ ": no measured operation"))
  in
  let t = Option.get !R.captured in
  let alloc1 = S.allocator_stats t in
  let epochs = S.epoch_value t - base.epoch0 in
  let total = Spans.sum accs in
  (* The output gate.  Each violation counts as failed operations. *)
  let problems = ref [] and failed = ref 0 in
  let fail n msg =
    failed := !failed + n;
    problems := msg :: !problems
  in
  if faults > 0 then fail faults (Printf.sprintf "%d memory faults" faults);
  let aborted = Stats.metric stats "oom_events" in
  if aborted > 0 then fail aborted (Printf.sprintf "%d ops aborted" aborted);
  (match S.check_invariants t with
   | () -> ()
   | exception e -> fail 1 ("invariant: " ^ Printexc.to_string e));
  let contents = (Option.get S.map).to_sorted_list t in
  if not (Timed.entries_ok ~lo:0 ~hi:(w.spec.key_range - 1) contents) then
    fail 1 "map contents not sorted, unique, in range, value = key";
  (* Conservation: the final size is the prefill plus successful
     inserts minus successful removes.  An op the simulator's horizon
     unwound may have taken effect without returning, so each one
     widens the tolerance by one. *)
  let unwound =
    Array.fold_left
      (fun n (a : Spans.acc) -> if a.open_start >= 0 then n + 1 else n)
      0 accs
  in
  let expected = !Spans.prefill_inserted + total.inserted - total.removed in
  let drift = abs (List.length contents - expected) - unwound in
  if drift > 0 then
    fail drift
      (Printf.sprintf "map holds %d keys, expected %d (+-%d unwound)"
         (List.length contents) expected unwound);
  if total.bad_scans > 0 then
    fail total.bad_scans
      (Printf.sprintf "%d scans returned bad entries" total.bad_scans);
  if w.background then begin
    let pushed = Stats.metric stats "handoff_pushed"
    and drained = Stats.metric stats "handoff_drained" in
    if pushed <> drained then
      fail (abs (pushed - drained))
        (Printf.sprintf "handoff pushed %d, drained %d" pushed drained)
  end;
  if total.backwards + total.foreign > 0 then
    fail (total.backwards + total.foreign)
      "spans out of order or timed on another domain";
  let worker_cycles =
    Array.fold_left ( + ) 0 (Array.init cfg.threads vtime)
  in
  let residue = ref 0 in
  Array.iteri
    (fun tid (a : Spans.acc) ->
      if a.open_start >= 0 then residue := !residue + vtime tid - a.open_start)
    accs;
  {
    scheme; backend; traced; stats;
    setup_s = float_of_int (!Spans.setup_end - !Spans.setup_start) /. 1e9;
    wall_s;
    attempted = stats.ops + aborted;
    failed = !failed;
    problems = List.rev !problems;
    accs; total; service;
    alloc = (base.alloc0, alloc1);
    epochs;
    charges = charge_delta base.charges0 charges1;
    minor_words = words1 -. base.words0;
    worker_cycles;
    residue = !residue;
  }

let per_makespan l scale =
  if l.stats.makespan = 0 then 0.0
  else scale *. float_of_int l.stats.ops /. float_of_int l.stats.makespan

(* Domains makespans are microseconds, sim makespans cycles. *)
let ops_per_s l = per_makespan l 1e6
let ops_per_kcycle l = per_makespan l 1e3
let p99_us l = Spans.quantile_ns l.total.lat 0.99 /. 1000.0
