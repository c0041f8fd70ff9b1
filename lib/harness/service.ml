(* Open-loop service simulation (DESIGN.md §10).

   Where the closed loop reproduces the paper's microbenchmark — a
   fixed census of threads issuing operations back-to-back — this
   module models the ROADMAP's production-scale north star: requests
   *arrive* on their own Poisson schedule (modulated by a diurnal ramp
   and load spikes), keys are Zipf-skewed, and workers join and leave
   the census mid-run through the tracker attach/detach protocol.
   Per-request latency is arrival-to-completion, so queueing delay —
   the quantity a closed loop structurally cannot observe — is part of
   every percentile, and each run is held to one SLO over p50/p99/p999
   latency and peak allocator footprint.

   Determinism: the arrival schedule is precomputed outside the
   simulated machine from its own seeded stream (exponential gaps via
   inverse CDF; the diurnal ramp is an integer piecewise-linear tent
   and spike windows are integer arithmetic, so only the gap draw
   touches floating point).  Workers claim arrivals from a shared
   fetch-and-add cursor inside the simulation.  Same seed, same
   config => the same arrivals, the same interleaving, a bit-identical
   row.

   Churn: [threads + 2] worker fibers share [threads] census slots.
   Each worker loops attach -> serve a bounded session -> detach ->
   stay away, retrying with backoff when the census is full (the two
   extra workers keep slots contended, so slot reuse — the dangerous
   part of the protocol — happens constantly, not incidentally).

   The run loop is [Run_engine.drive], shared with the closed loop:
   this module supplies the open-loop driver, and a run returns the
   closed loop's [Stats.t] row, with the service's own figures as
   [svc_*] registry columns. *)

open Ibr_runtime
open Ibr_ds

type slo = {
  p50 : int;
  p99 : int;
  p999 : int;
  peak_footprint : int;
}

(* Latency targets in virtual cycles (microseconds on domains),
   footprint in blocks.  Sized for the service campaign's runs with
   roughly 2x headroom over the slowest paper-set scheme's measured
   tails (HP; see EXPERIMENTS.md), so every sound scheme passes and a
   regression that doubles a tail fails. *)
let slo =
  { p50 = 25_000; p99 = 60_000; p999 = 120_000; peak_footprint = 40_000 }

(* The base mean inter-arrival gap in cycles, and the key skew. *)
let period = 60
let zipf_theta = 0.9

(* The service's shape: requests per attached session, cycles detached
   between sessions, and evenly spaced x3 load spikes. *)
let session_ops = 40
let away = 2_000
let spikes = 2

let fleet threads = threads + 2

(* Rate modulation in permille of the base rate, all-integer so the
   schedule's shape is exactly reproducible.  Diurnal: a linear tent
   from 600 at the run's edges to 1500 mid-run ("overnight" to "peak
   hours").  Spikes: [spikes] evenly spaced windows of 2% of the
   horizon at 3x whatever the tent says. *)
let rate_permille ~horizon ~t =
  let half = max 1 (horizon / 2) in
  let x = if t <= half then t else max 0 (horizon - t) in
  let base = 600 + (900 * min x half) / half in
  let width = max 1 (horizon / 50) in
  let gap = horizon / (spikes + 1) in
  let rec in_spike k =
    k <= spikes
    && ((t >= (k * gap) && t < (k * gap) + width) || in_spike (k + 1))
  in
  if in_spike 1 then base * 3 else base

(* Precompute the arrival timestamps.  Gaps are exponential with mean
   [period * 1000 / rate_permille] (inverse-CDF sampling) and at least
   one cycle, so the schedule holds at most [horizon] arrivals. *)
let gen_arrivals ~seed ~horizon =
  let rng = Rng.stream ~seed ~index:997 in
  let rec go acc t =
    if t >= float_of_int horizon then Array.of_list (List.rev acc)
    else begin
      let ti = int_of_float t in
      let mean =
        float_of_int (period * 1000)
        /. float_of_int (rate_permille ~horizon ~t:ti)
      in
      let gap = -.mean *. log (1.0 -. Rng.float rng) in
      go (ti :: acc) (t +. Float.max 1.0 gap)
    end
  in
  go [] 0.0

(* Registered by the first service run, not at module init: these
   columns must not leak into the closed-loop CSV layout (test_obs
   pins it byte for byte) unless a service run happened.  The
   watchdog's lazy gauges register with them, so a service row has the
   same columns whether or not a neutralizing run came first. *)
let columns =
  lazy
    (Watchdog.register_gauges ();
     ( Ibr_obs.Metrics.register_histogram ~name:"svc_latency" ~order:900,
       List.mapi
         (fun i name ->
            (name, Ibr_obs.Metrics.register_gauge ~name ~order:(910 + i)))
         [ "svc_fleet"; "svc_arrivals"; "svc_aborted"; "svc_attaches";
           "svc_detaches"; "svc_attach_full"; "svc_p999"; "svc_slo_pass" ] ))

(* Each check of the SLO: the row's value against its target. *)
let slo_checks (r : Stats.t) =
  let m = Stats.metric r in
  let time = if r.backend = "sim" then "cycles" else "us" in
  [ ("p50", m "svc_latency_p50", slo.p50, time);
    ("p99", m "svc_latency_p99", slo.p99, time);
    ("p999", m "svc_p999", slo.p999, time);
    ("peak_footprint", m "peak_footprint", slo.peak_footprint, "blocks") ]

let slo_failures r =
  List.filter_map
    (fun (name, actual, target, _) ->
       if actual <= target then None
       else Some (Printf.sprintf "%s %d > %d" name actual target))
    (slo_checks r)

let pp_slo ppf r =
  Fmt.pf ppf "SLO: %s: %s"
    (String.concat ", "
       (List.map
          (fun (name, actual, target, unit) ->
             Printf.sprintf "%s %d/%d %s" name actual target unit)
          (slo_checks r)))
    (match slo_failures r with
     | [] -> "PASS"
     | fs -> "FAIL [" ^ String.concat "; " fs ^ "]")

(* The open-loop driver of [Run_engine.drive]: [fleet] workers churn
   through the [cfg.threads] census slots, claiming arrivals and
   recording each one's latency, and the row digests them after the
   run.  On domains the arrival schedule is the same precomputed array,
   timestamps are microseconds of monotonic wall clock, and the
   deadline is observed through [exec.worker_running] (always true on
   the sim, where the horizon unwinds fibers instead). *)
let serve ~(exec : Runner_intf.exec) ~horizon ~watchdog ~tracker_name
    ~ds_name (module S : Ds_intf.RIDEABLE) (cfg : Run_engine.config) =
  (match cfg.faults with
   | No_faults | Stall_storm _ -> ()
   | f ->
     invalid_arg
       (Printf.sprintf
          "Service: the %s fault profile cannot drive a service run \
           (none or a stall storm only)"
          (Runner_intf.faults_name f)));
  if cfg.threads < 1 then invalid_arg "Service: workers must be >= 1";
  let fleet = fleet cfg.threads in
  let latency, gauges = Lazy.force columns in
  let arrivals = gen_arrivals ~seed:cfg.seed ~horizon in
  let n_arr = Array.length arrivals in
  (* -1 = never served, -2 = aborted; single writer per index (the
     claiming worker), so a plain array is race-free in the sim. *)
  let lat = Array.make (max 1 n_arr) (-1) in
  let next = Atomic.make 0 in
  let zipf = Workload.zipf ~theta:zipf_theta ~key_range:cfg.spec.key_range in
  (* Atomics: on domains several workers race these counters; on the
     sim the plain increments they replace cost nothing either way
     (neither path goes through the cost hooks). *)
  let attaches = Atomic.make 0
  and detaches = Atomic.make 0
  and attach_full = Atomic.make 0 in
  (* Each worker samples its unreclaimed count at every request, on
     cache lines of its own, as the closed loop does at every op. *)
  let samplers =
    Array.init fleet (fun _ -> Padded.copy (Stats.make_sampler ()))
  in
  (* Census mirror for the watchdog: which slots the service believes
     are occupied, by which worker, and per-slot attempt counters
     (cumulative across occupants; the watchdog re-arms on each
     occupancy change).  Distinct-index writes by the slot's occupant;
     the watchdog's cross-thread reads are racy by design (a stale read
     delays one check, inside the grace budget). *)
  let slot_active = Array.make cfg.threads false in
  let slot_attempts = Array.make cfg.threads 0 in
  let slot_owner = Array.make cfg.threads 0 in
  let open_loop t =
    let request perform h slot i rng sampler =
      Stats.sample sampler (S.retired_count h);
      slot_attempts.(slot) <- slot_attempts.(slot) + 1;
      let ta = arrivals.(i) in
      let now = exec.now () in
      if ta > now then exec.wait (ta - now);
      let key = Workload.zipf_pick zipf rng in
      let op = Workload.pick_op rng cfg.spec.mix in
      lat.(i) <- (if perform h op key then exec.now () - ta else -2)
    in
    (* Worker [w] is the tid [exec.spawn] gave it. *)
    let worker perform w =
      let rng = Rng.stream ~seed:cfg.seed ~index:(0x1000 + w) in
      (* Stagger the fleet so sessions do not churn in lockstep. *)
      exec.wait (1 + (w * 131));
      let rec join () =
        match S.attach t with
        | None ->
          (* Census full: another worker holds every slot.  Back off
             and retry — this is the expected steady state when
             fleet > workers. *)
          Atomic.incr attach_full;
          exec.wait 512;
          if exec.worker_running () then join ()
        | Some h ->
          Atomic.incr attaches;
          let slot = S.handle_tid h in
          slot_owner.(slot) <- w;
          slot_active.(slot) <- true;
          session h slot session_ops
      and leave h slot =
        slot_active.(slot) <- false;
        S.detach h;
        Atomic.incr detaches
      and session h slot budget =
        if budget = 0 then begin
          leave h slot;
          exec.wait away;
          if exec.worker_running () then join ()
        end
        else begin
          let i = Ibr_core.Prim.faa next 1 in
          if i >= n_arr then begin
            (* Demand exhausted: leave properly and idle out the rest
               of the horizon. *)
            leave h slot;
            Run_engine.park exec
          end
          else begin
            request perform h slot i rng samplers.(w);
            (* One tick per request, as per closed-loop operation: on
               domains it injects the stall storm.  Past the wall
               deadline (domains only; always running on the sim),
               leave cleanly so the detach protocol runs even on a
               timed exit. *)
            if exec.worker_tick ~tid:w && exec.worker_running () then
              session h slot (budget - 1)
            else leave h slot
          end
        end
      in
      join ()
    in
    {
      (* Prefill through an attached handle, detached before the run:
         the measured phase starts with a fully free census and a
         populated structure, and every service run exercises detach
         at least once even if churn parameters are degenerate. *)
      Run_engine.prefill =
        (fun fill ->
           let h0 = Option.get (S.attach t) in
           fill h0;
           S.detach h0);
      spawn_workers =
        (fun perform ->
           for _ = 1 to fleet do
             exec.spawn (fun ~tid -> worker perform tid)
           done);
      active = (fun slot -> slot_active.(slot));
      progress = (fun slot -> slot_attempts.(slot));
      occupant = (fun slot -> slot_owner.(slot));
    }
  in
  let o = Run_engine.drive ~exec ~ds_name (module S) cfg ~watchdog open_loop in
  (* Digest latencies: the histogram takes completed requests only; its
     percentiles use the same index as the p999 computed here. *)
  let served =
    Array.of_seq (Seq.filter (fun l -> l >= 0) (Array.to_seq lat))
  in
  Array.sort compare served;
  Array.iter (Ibr_obs.Metrics.observe latency) served;
  let ops = Array.length served in
  let set name v = List.assoc name gauges := v in
  set "svc_fleet" fleet;
  set "svc_arrivals" n_arr;
  set "svc_aborted"
    (Array.fold_left (fun n l -> n + Bool.to_int (l = -2)) 0 lat);
  set "svc_attaches" (Atomic.get attaches);
  set "svc_detaches" (Atomic.get detaches);
  set "svc_attach_full" (Atomic.get attach_full);
  set "svc_p999"
    (if ops = 0 then 0
     else served.(min (ops - 1) (int_of_float (float_of_int ops *. 0.999))));
  let merged = Stats.merge_samplers (Array.to_list samplers) in
  let row () =
    {
      Stats.tracker = tracker_name;
      ds = ds_name;
      threads = cfg.threads;
      mix = Workload.mix_name cfg.spec.mix;
      backend = exec.backend;
      ops;
      makespan = o.makespan;
      throughput = Stats.throughput ~ops ~makespan:o.makespan;
      avg_unreclaimed = Stats.mean merged;
      peak_unreclaimed = merged.peak;
      samples = merged.n;
      metrics = Ibr_obs.Metrics.collect o.baseline;
    }
  in
  set "svc_slo_pass" (Bool.to_int (slo_failures (row ()) = []));
  row ()
