(* Open-loop service simulation (DESIGN.md §10).

   Where [Runner_sim] reproduces the paper's closed-loop
   microbenchmark — a fixed census of threads issuing operations
   back-to-back — this module models the ROADMAP's production-scale
   north star: requests *arrive* on their own schedule (Poisson or
   bursty, modulated by a diurnal ramp and load spikes), keys are
   Zipf-skewed, and workers join and leave the census mid-run through
   the tracker attach/detach protocol.  Per-request latency is
   arrival-to-completion, so queueing delay — the quantity a closed
   loop structurally cannot observe — is part of every percentile,
   and the run ends with SLO pass/fail verdicts over p50/p99/p999
   latency and peak allocator footprint.

   Determinism: the arrival schedule is precomputed outside the
   simulated machine from its own seeded stream (exponential gaps via
   inverse CDF; the diurnal ramp is an integer piecewise-linear tent
   and spike windows are integer arithmetic, so only the gap draw
   touches floating point).  Workers claim arrivals from a shared
   fetch-and-add cursor inside the simulation.  Same seed, same
   profile => the same arrivals, the same interleaving, bit-identical
   CSV and verdicts — the PR 4/6 reproducibility discipline extended
   to open-loop runs.

   Churn: [fleet] worker fibers share [workers] census slots.  Each
   worker loops attach -> serve a bounded session -> detach -> stay
   away, retrying with backoff when the census is full (fleet >
   workers keeps slots contended, so slot reuse — the dangerous part
   of the protocol — happens constantly, not incidentally).

   The run loop is [Run_engine.drive], shared with the closed loop:
   this module supplies the open-loop driver and digests what its
   workers recorded. *)

open Ibr_runtime
open Ibr_ds

type arrival =
  | Poisson
  | Bursty of { burst : int; prob : float }

let arrival_name = function
  | Poisson -> "poisson"
  | Bursty { burst; prob } -> Printf.sprintf "bursty%d@%.2f" burst prob

let arrival_of_string s =
  match String.lowercase_ascii s with
  | "poisson" -> Some Poisson
  | "bursty" -> Some (Bursty { burst = 8; prob = 0.02 })
  | _ -> None

(* Latency targets in virtual cycles; footprint in blocks.  A target
   of [max_int] disables that check. *)
type slo = {
  p50 : int;
  p99 : int;
  p999 : int;
  peak_footprint : int;
}

type verdict = {
  metric : string;
  target : int;
  actual : int;
  ok : bool;
}

type profile = {
  workers : int;        (* census capacity (tracker [threads]) *)
  fleet : int;          (* worker fibers sharing the slots *)
  cores : int;
  horizon : int;
  seed : int;
  arrival : arrival;
  period : int;         (* base mean inter-arrival gap, cycles *)
  diurnal : bool;       (* x0.6 at the edges, x1.5 mid-run *)
  spikes : int;         (* evenly spaced x3 windows, 2% of horizon *)
  zipf_theta : float;   (* 0 = uniform *)
  session_ops : int;    (* ops per attached session *)
  away : int;           (* cycles detached between sessions *)
  watchdog : (int * int) option;   (* (period, grace) *)
  neutralize : bool;
  (* Remedy for the watchdog above: false = eject the stalled worker
     (loses it for the rest of its session), true = deliver a restart
     signal and let it recover (DESIGN.md §12) — the SLO comparison
     leg of the neutralization campaign. *)
  spec : Workload.spec;
  tracker_cfg : Ibr_core.Tracker_intf.config;
  slo : slo;
}

(* Default SLO: sized for the default profile below with roughly 2x
   headroom over the slowest paper-set scheme's measured tails (HP;
   see EXPERIMENTS.md), so every sound scheme passes and a regression
   that doubles a tail fails.  EXPERIMENTS.md also reports a tight SLO
   that discriminates between schemes. *)
let default_slo = {
  p50 = 25_000;
  p99 = 60_000;
  p999 = 120_000;
  peak_footprint = 40_000;
}

let default_profile ?(workers = 4) ?(fleet = 6) ?(cores = 8)
    ?(horizon = 150_000) ?(seed = 0xca11) ?(arrival = Poisson)
    ?(period = 60) ?(diurnal = true) ?(spikes = 2) ?(zipf_theta = 0.9)
    ?(session_ops = 40) ?(away = 2_000) ?watchdog ?(neutralize = false)
    ?(slo = default_slo) ~spec () =
  {
    workers;
    fleet;
    cores;
    horizon;
    seed;
    arrival;
    period;
    diurnal;
    spikes;
    zipf_theta;
    session_ops;
    away;
    watchdog;
    neutralize;
    spec;
    tracker_cfg = Ibr_core.Tracker_intf.default_config ~threads:workers ();
    slo;
  }

(* Rate modulation in permille of the base rate, all-integer so the
   schedule's shape is exactly reproducible.  Diurnal: a linear tent
   from 600 at the run's edges to 1500 mid-run ("overnight" to "peak
   hours").  Spikes: [spikes] evenly spaced windows of 2% of the
   horizon at 3x whatever the tent says. *)
let rate_permille p ~t =
  let base =
    if not p.diurnal then 1000
    else begin
      let half = max 1 (p.horizon / 2) in
      let x = if t <= half then t else max 0 (p.horizon - t) in
      600 + (900 * min x half) / half
    end
  in
  if p.spikes <= 0 then base
  else begin
    let width = max 1 (p.horizon / 50) in
    let gap = p.horizon / (p.spikes + 1) in
    let rec in_spike k =
      k <= p.spikes
      && ((t >= (k * gap) && t < (k * gap) + width) || in_spike (k + 1))
    in
    if in_spike 1 then base * 3 else base
  end

(* Precompute the arrival timestamps.  Gaps are exponential with mean
   [period * 1000 / rate_permille] (inverse-CDF sampling); a bursty
   process additionally emits a train of same-instant arrivals with
   probability [prob] per base arrival.  The safety cap bounds memory
   against pathological parameter choices; hitting it is reported in
   the result as [arrivals_capped]. *)
let arrival_cap p = 1024 + (16 * p.horizon / max 1 p.period)

let gen_arrivals p =
  let rng = Rng.stream ~seed:p.seed ~index:997 in
  let cap = arrival_cap p in
  let buf = ref [] and n = ref 0 in
  let push ti =
    if !n < cap then begin
      buf := ti :: !buf;
      incr n
    end
  in
  let t = ref 0.0 in
  while !t < float_of_int p.horizon && !n < cap do
    let ti = int_of_float !t in
    push ti;
    (match p.arrival with
     | Poisson -> ()
     | Bursty { burst; prob } ->
       if Rng.chance rng prob then
         for _ = 1 to burst do push ti done);
    let mean =
      float_of_int (p.period * 1000) /. float_of_int (rate_permille p ~t:ti)
    in
    let gap = -.mean *. log (1.0 -. Rng.float rng) in
    t := !t +. Float.max 1.0 gap
  done;
  (Array.of_list (List.rev !buf), !n >= cap)

type result = {
  tracker : string;
  ds : string;
  backend : string;
  workers : int;
  fleet : int;
  arrivals : int;
  arrivals_capped : bool;
  completed : int;
  aborted : int;          (* claimed but died of allocator exhaustion *)
  unserved : int;         (* never claimed / unwound mid-request *)
  attaches : int;
  detaches : int;
  attach_full : int;      (* attach attempts refused: census full *)
  ejections : int;
  neutralizations : int;
  recovered : int;        (* neutralized workers that resumed *)
  p50 : int;
  p90 : int;
  p99 : int;
  p999 : int;
  max_latency : int;
  peak_footprint : int;
  makespan : int;
  throughput : float;     (* completed requests per Mcycle *)
  verdicts : verdict list;
  slo_pass : bool;
  metrics : Ibr_obs.Metrics.snapshot;
}

(* Registered on first use, not at module init: these columns must
   not leak into the fixed-census CSV layout (test_obs pins it
   byte-for-byte) unless a service run actually happened. *)
let service_metrics =
  lazy
    (let open Ibr_obs.Metrics in
     let latency = register_histogram ~name:"svc_latency" ~order:900 in
     let arrivals = register_gauge ~name:"svc_arrivals" ~order:910 in
     let completed = register_gauge ~name:"svc_completed" ~order:911 in
     let aborted = register_gauge ~name:"svc_aborted" ~order:912 in
     let attaches = register_gauge ~name:"svc_attaches" ~order:913 in
     let detaches = register_gauge ~name:"svc_detaches" ~order:914 in
     let p999 = register_gauge ~name:"svc_p999" ~order:915 in
     (latency, arrivals, completed, aborted, attaches, detaches, p999))

(* Same index convention as [Ibr_obs.Metrics.percentile], so the p50
   and p99 published through the registry histogram and the p999
   computed here are one consistent family. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(min (n - 1) (int_of_float (float_of_int n *. p)))

let check ~metric ~target ~actual =
  { metric; target; actual; ok = target = max_int || actual <= target }

(* The open-loop driver of [Run_engine.drive]: [fleet] workers churn
   through [workers] census slots, claiming arrivals; the latencies
   they record are digested into the SLO verdicts after the run.  On
   domains the arrival schedule is the same precomputed array,
   timestamps are microseconds of monotonic wall clock, and the
   deadline is observed through [exec.worker_running] (always true on
   the sim, where the horizon unwinds fibers instead). *)
let serve ~(exec : Runner_intf.exec) ~tracker_name ~ds_name
    (module S : Ds_intf.RIDEABLE) (p : profile) =
  Runner_intf.require_capability exec "service";
  if p.workers < 1 then invalid_arg "Service: workers must be >= 1";
  if p.fleet < 1 then invalid_arg "Service: fleet must be >= 1";
  if p.period < 1 then invalid_arg "Service: period must be >= 1";
  if p.session_ops < 1 then
    invalid_arg "Service: session_ops must be >= 1";
  let arrivals, arrivals_capped = gen_arrivals p in
  let n_arr = Array.length arrivals in
  (* -1 = never served, -2 = aborted; single writer per index (the
     claiming worker), so a plain array is race-free in the sim. *)
  let lat = Array.make (max 1 n_arr) (-1) in
  let next = Atomic.make 0 in
  let zipf = Workload.zipf ~theta:p.zipf_theta ~key_range:p.spec.key_range in
  (* Atomics: on domains several workers race these counters; on the
     sim the plain increments they replace cost nothing either way
     (neither path goes through the cost hooks). *)
  let attaches = Atomic.make 0
  and detaches = Atomic.make 0
  and attach_full = Atomic.make 0 in
  (* Census mirror for the watchdog: which slots the service believes
     are occupied, and per-slot attempt counters (cumulative across
     occupants; the watchdog re-arms on each occupancy change).
     Distinct-index writes by the slot's occupant; the watchdog's
     cross-thread reads are racy by design (a stale read delays one
     check, inside the grace budget). *)
  let slot_active = Array.make p.workers false in
  let slot_attempts = Array.make p.workers 0 in
  let open_loop t =
    let request perform h slot i rng =
      slot_attempts.(slot) <- slot_attempts.(slot) + 1;
      let ta = arrivals.(i) in
      let now = exec.now () in
      if ta > now then exec.wait (ta - now);
      let key = Workload.zipf_pick zipf rng in
      let op = Workload.pick_op rng p.spec.mix in
      lat.(i) <- (if perform h op key then exec.now () - ta else -2)
    in
    let worker perform w =
      let rng = Rng.stream ~seed:p.seed ~index:(0x1000 + w) in
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
          slot_active.(slot) <- true;
          session h slot p.session_ops
      and leave h slot =
        slot_active.(slot) <- false;
        S.detach h;
        Atomic.incr detaches
      and session h slot budget =
        if budget = 0 then begin
          leave h slot;
          exec.wait p.away;
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
            request perform h slot i rng;
            (* Wall deadline (domains only; always running on the
               sim): finish the request, then leave cleanly so the
               detach protocol runs even on a timed exit. *)
            if exec.worker_running () then session h slot (budget - 1)
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
           for w = 0 to p.fleet - 1 do
             exec.spawn (fun ~tid:_ -> worker perform w)
           done);
      active = (fun slot -> slot_active.(slot));
      progress = (fun slot -> slot_attempts.(slot));
    }
  in
  let cfg =
    { Run_engine.threads = p.workers; seed = p.seed;
      tracker_cfg = p.tracker_cfg; spec = p.spec;
      faults = Runner_intf.No_faults }
  in
  let o =
    Run_engine.drive ~exec ~ds_name (module S) cfg
      ~watchdog:
        (Option.map (fun (period, grace) -> (period, grace, p.neutralize))
           p.watchdog)
      open_loop
  in
  let lat_h, m_arr, m_comp, m_ab, m_att, m_det, m_p999 =
    Lazy.force service_metrics
  in
  (* Digest latencies: completed requests only. *)
  let completed = ref 0 and aborted = ref 0 in
  Array.iter
    (fun l ->
       if l >= 0 then incr completed else if l = -2 then incr aborted)
    lat;
  let sorted = Array.make !completed 0 in
  let k = ref 0 in
  Array.iter
    (fun l ->
       if l >= 0 then begin
         sorted.(!k) <- l;
         incr k
       end)
    lat;
  Array.sort compare sorted;
  Array.iter (fun l -> if l >= 0 then Ibr_obs.Metrics.observe lat_h l) lat;
  let p50 = percentile sorted 0.50 in
  let p90 = percentile sorted 0.90 in
  let p99 = percentile sorted 0.99 in
  let p999 = percentile sorted 0.999 in
  let max_latency =
    if !completed = 0 then 0 else sorted.(!completed - 1) in
  m_arr := n_arr;
  m_comp := !completed;
  m_ab := !aborted;
  m_att := Atomic.get attaches;
  m_det := Atomic.get detaches;
  m_p999 := p999;
  let verdicts =
    [
      check ~metric:"p50" ~target:p.slo.p50 ~actual:p50;
      check ~metric:"p99" ~target:p.slo.p99 ~actual:p99;
      check ~metric:"p999" ~target:p.slo.p999 ~actual:p999;
      check ~metric:"peak_footprint" ~target:p.slo.peak_footprint
        ~actual:o.alloc.peak_footprint;
    ]
  in
  {
    tracker = tracker_name;
    ds = ds_name;
    backend = exec.backend;
    workers = p.workers;
    fleet = p.fleet;
    arrivals = n_arr;
    arrivals_capped;
    completed = !completed;
    aborted = !aborted;
    unserved = n_arr - !completed - !aborted;
    attaches = Atomic.get attaches;
    detaches = Atomic.get detaches;
    attach_full = Atomic.get attach_full;
    ejections =
      (match o.watchdog with Some w -> Watchdog.ejections w | None -> 0);
    neutralizations =
      (match o.watchdog with Some w -> Watchdog.neutralizations w | None -> 0);
    recovered =
      (match o.watchdog with Some w -> Watchdog.recovered w | None -> 0);
    p50;
    p90;
    p99;
    p999;
    max_latency;
    peak_footprint = o.alloc.peak_footprint;
    makespan = o.makespan;
    throughput = Stats.throughput ~ops:!completed ~makespan:o.makespan;
    verdicts;
    slo_pass = List.for_all (fun v -> v.ok) verdicts;
    metrics = Ibr_obs.Metrics.collect o.baseline;
  }

let run_named_exec ~exec ~tracker_name ~ds_name p =
  Option.map
    (fun (tracker_name, m) -> serve ~exec ~tracker_name ~ds_name m p)
    (Run_engine.resolve ~tracker_name ~ds_name)

(* The simulator: one machine per run, built from the profile. *)
let run_named ~tracker_name ~ds_name p =
  let sched =
    Sched.create { Sched.default_config with cores = p.cores; seed = p.seed }
  in
  let exec = Run_engine.sim_exec ~sched ~horizon:p.horizon in
  run_named_exec ~exec ~tracker_name ~ds_name p

(* CSV: identity + counts + tails + verdict, every field an integer
   except throughput (printed with a fixed format), so a fixed seed
   reproduces the row byte-for-byte. *)
let csv_header =
  "tracker,ds,workers,fleet,arrivals,completed,aborted,unserved,\
   attaches,detaches,attach_full,ejections,neutralizations,recovered,\
   p50,p90,p99,p999,\
   max_latency,peak_footprint,makespan,throughput,slo_pass,backend"

let to_csv_row r =
  Printf.sprintf
    "%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.6f,\
     %d,%s"
    r.tracker r.ds r.workers r.fleet r.arrivals r.completed r.aborted
    r.unserved r.attaches r.detaches r.attach_full r.ejections
    r.neutralizations r.recovered r.p50 r.p90
    r.p99 r.p999 r.max_latency r.peak_footprint r.makespan r.throughput
    (if r.slo_pass then 1 else 0)
    r.backend

let verdicts_csv r =
  String.concat ";"
    (List.map
       (fun v ->
          Printf.sprintf "%s:%d<=%d:%s" v.metric v.actual v.target
            (if v.ok then "pass" else "FAIL"))
       r.verdicts)

let pp ppf r =
  Fmt.pf ppf
    "@[<v>%s on %s%s: %d arrivals, %d completed, %d aborted, %d unserved@,\
     churn: %d attaches / %d detaches (%d refused full, %d ejections, \
     %d neutralized / %d recovered)@,\
     latency p50=%d p90=%d p99=%d p999=%d max=%d cycles@,\
     peak footprint %d blocks, makespan %d, %.2f req/Mcycle@,\
     SLO: %s%s@]"
    r.tracker r.ds
    (if r.backend = "sim" then "" else Printf.sprintf " [%s]" r.backend)
    r.arrivals r.completed r.aborted r.unserved r.attaches
    r.detaches r.attach_full r.ejections r.neutralizations r.recovered
    r.p50 r.p90 r.p99 r.p999
    r.max_latency r.peak_footprint r.makespan r.throughput
    (if r.slo_pass then "PASS" else "FAIL")
    (if r.slo_pass then ""
     else
       " [" ^
       String.concat "; "
         (List.filter_map
            (fun v ->
               if v.ok then None
               else
                 Some
                   (Printf.sprintf "%s %d > %d" v.metric v.actual v.target))
            r.verdicts)
       ^ "]")
