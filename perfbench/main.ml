(* The benchmark command: one workload, three schemes, both backends.

     dune exec ./perfbench/main.exe -- \
       --workload NAME --seed N --seconds S --trace 0|1

   [--trace 0] runs the legs without the tracker wrapper and prints
   the end-to-end metrics.  [--trace 1] adds it and prints the
   per-layer metrics.  Readable lines come first; the last line of
   standard output is one JSON object.  A correctness violation reports
   [correct: false] and exits 1. *)

open Perfbench

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The mean of the middle half of [xs]: as deaf as the median to the
   few legs a noisy machine slows badly, and steadier. *)
let mid_mean xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let k = n / 4 in
  let mid = Array.sub a k (n - (2 * k)) in
  Array.fold_left ( +. ) 0.0 mid /. float_of_int (Array.length mid)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let rotate k l =
  let k = k mod List.length l in
  List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l

(* The length of one Domains leg.  An end-to-end run fills its
   seconds with rounds of legs; each round runs every scheme once, in
   rotated order, and wall-clock metrics are means of the middle half
   of the rounds. *)
let leg_seconds = 0.5

(* The length of one run of the reference load, and its rate per
   domain on the machine the baseline was taken on (2 vCPUs of an
   Intel Xeon), rounded.  Wall-clock figures are reported as if
   measured on that machine: a leg that ran while the reference load
   ran at [s] times this rate counts its throughput divided by [s] and
   its times multiplied by [s]. *)
let ref_seconds = 0.2
let ref_rate_per_domain = 2e7

type metric = { name : string; unit_ : string; value : float }

(* What a metric's unit says about how it was measured: on the wall
   clock (Domains legs, repeated), or as an exact simulator or
   cost-model count. *)
let wall_units = [ "ops/s"; "us"; "ns"; "s"; "%" ]

let kind_of_unit u =
  if List.mem u wall_units then "wall clock" else "cost-model count"

let backend_name = function Legs.Sim -> "sim" | Legs.Domains _ -> "domains"

let print_leg (l : Legs.leg) =
  Printf.printf
    "  %-7s %-7s %-6s ops=%-9d makespan=%-9d setup=%.4fs wall=%.2fs %s%s\n"
    l.scheme (backend_name l.backend)
    (if l.traced then "traced" else "plain")
    l.stats.ops l.stats.makespan l.setup_s l.wall_s
    (match l.backend with
     | Legs.Domains _ ->
       Printf.sprintf "ops/s=%.0f p99=%.3fus (%d samples)" (Legs.ops_per_s l)
         (Legs.p99_us l) (Spans.samples l.total.lat)
     | Legs.Sim ->
       Printf.sprintf "ops/kcycle=%.4f unreclaimed=%.2f"
         (Legs.ops_per_kcycle l) l.stats.avg_unreclaimed)
    (if l.problems = [] then ""
     else " PROBLEMS: " ^ String.concat "; " l.problems)

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let sum_legs f legs = List.fold_left (fun n (l : Legs.leg) -> n + f l) 0 legs
let legs_attempted = sum_legs (fun l -> l.attempted)
let legs_failed = sum_legs (fun l -> l.failed)

let report ~(legs : Legs.leg list) ~failed metrics =
  List.iter
    (fun m ->
      Printf.printf "  %-44s %16.6g %-10s %s\n" m.name m.value m.unit_
        (kind_of_unit m.unit_))
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) (max 1 (legs_attempted legs)) failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (num m.value) m.unit_)
          metrics));
  if failed > 0 then exit 1

let end_to_end w ~seed ~seconds =
  let run ?(seed = seed) scheme backend =
    Legs.run w ~scheme ~backend ~traced:false ~seed
  in
  let sims =
    List.concat_map
      (fun s ->
        List.init w.sim_reps (fun r ->
          run ~seed:(Legs.rep_seed seed r) s Legs.Sim))
      Legs.schemes
  in
  let n = List.length Legs.schemes in
  let rounds =
    max 1
      (int_of_float
         ((seconds -. ref_seconds)
          /. ((leg_seconds *. float_of_int n) +. ref_seconds)))
  in
  let slice =
    (seconds -. (ref_seconds *. float_of_int (rounds + 1)))
    /. float_of_int (rounds * n)
  in
  (* The reference load runs before the first round and after each
     one, on as many domains as a leg uses; a leg's speed is the mean
     of the two runs around its round. *)
  let domains = w.domain_workers + if w.background then 1 else 0 in
  let gauge () =
    Reference.run ~domains ~seconds:ref_seconds
    /. (ref_rate_per_domain *. float_of_int domains)
  in
  let first = gauge () in
  let _, speeds, doms =
    List.fold_left
      (fun (before, speeds, doms) r ->
        let legs =
          List.map (fun s -> run s (Legs.Domains slice)) (rotate r Legs.schemes)
        in
        let after = gauge () in
        let speed = (before +. after) /. 2.0 in
        (after, after :: speeds,
         doms @ List.map (fun l -> (l, speed)) legs))
      (first, [ first ], [])
      (List.init rounds Fun.id)
  in
  let legs = sims @ List.map fst doms in
  List.iter print_leg legs;
  let speed = median speeds in
  Printf.printf
    "  reference load: %d runs on %d domain(s), median speed %.4f of the \
     reference machine's\n"
    (List.length speeds) domains speed;
  let of_scheme s = List.filter (fun (l : Legs.leg) -> l.scheme = s) in
  let doms_of s = List.filter (fun ((l : Legs.leg), _) -> l.scheme = s) doms in
  let med f ls = median (List.map f ls) in
  (* A sim leg's figures are exact for its seed, so they are averaged
     over the seeds; wall-clock figures take the mean of the middle
     half of the rounds. *)
  let mean f ls =
    List.fold_left (fun acc l -> acc +. f l) 0.0 ls
    /. float_of_int (List.length ls)
  in
  let per_scheme s =
    let d = doms_of s and m = of_scheme s sims in
    let over_rounds f = mid_mean (List.map f d) in
    Printf.printf "  %-7s unscaled: %.0f ops/s, p99 %.3f us\n" s
      (over_rounds (fun (l, _) -> Legs.ops_per_s l))
      (over_rounds (fun (l, _) -> Legs.p99_us l));
    [ { name = "ops_per_s." ^ s; unit_ = "ops/s";
        value = over_rounds (fun (l, v) -> Legs.ops_per_s l /. v) };
      { name = "op_p99_us." ^ s; unit_ = "us";
        value = over_rounds (fun (l, v) -> Legs.p99_us l *. v) };
      { name = "sim_ops_per_kcycle." ^ s; unit_ = "ops/kcycle";
        value = mean Legs.ops_per_kcycle m };
      { name = "sim_unreclaimed." ^ s; unit_ = "blocks";
        value = mean (fun (l : Legs.leg) -> l.stats.avg_unreclaimed) m } ]
  in
  let failed = legs_failed legs in
  (* Set-up time: each leg kind's median over its repetitions, summed,
     at the run's median speed. *)
  let setup =
    speed
    *. List.fold_left
         (fun acc s ->
           acc
           +. med (fun (l : Legs.leg) -> l.setup_s) (of_scheme s sims)
           +. med (fun ((l : Legs.leg), _) -> l.setup_s) (doms_of s))
         0.0 Legs.schemes
  in
  report ~legs ~failed
    (List.concat_map per_scheme Legs.schemes
     @ [ { name = "ops_ok_ratio"; unit_ = "ratio";
           value = 1.0 -. ratio failed (legs_attempted legs) };
         { name = "setup_s"; unit_ = "s"; value = setup } ])

(* Per-layer metrics that read zero on every workload, left out: EBR
   issues no fences, and the starved reclaimer of stall-hashmap's sim
   leg never finds the queues empty under EBR or 2GEIBR. *)
let zero_everywhere =
  [ "sim.fence_cycles_per_op.EBR"; "handoff.idle_drain_ratio.EBR";
    "handoff.idle_drain_ratio.2GEIBR" ]

(* Per-layer metrics of one scheme.  [_cycles] and counts come from the
   traced sim leg; [_ns] from the traced Domains leg, minus the
   calibrated cost [c] of the clock reads each span holds. *)
let layer_metrics ~c ~(sim_plain : Legs.leg) ~(sim : Legs.leg)
    ~(dom_plain : Legs.leg) ~(dom : Legs.leg) scheme =
  let s = sim.total and d = dom.total in
  let ns ?(reads = 1) time count =
    if count = 0 then 0.0
    else
      (float_of_int time -. (c *. float_of_int (reads * count)))
      /. float_of_int count
  in
  let per_kop n = 1000.0 *. ratio n s.ops in
  let m = Ibr_harness.Stats.metric sim.stats in
  let a0, a1 = sim.alloc in
  let hits = a1.mag_hits - a0.mag_hits in
  let misses = a1.mag_misses - a0.mag_misses in
  let depot =
    a1.depot_refills - a0.depot_refills + a1.depot_flushes - a0.depot_flushes
  in
  let charged kinds =
    ratio
      (List.fold_left
         (fun n (k, cycles) -> if List.mem k kinds then n + cycles else n)
         0 sim.charges)
      s.ops
  in
  let svc = sim.service in
  let metric name unit_ value = { name = name ^ "." ^ scheme; unit_; value }
  in
  [ metric "harness.self_ns_per_op" "ns" (ns d.gap_time d.gaps);
    (* Each op span holds one clock read of its own plus two per
       tracker span inside it; each tracker span holds one. *)
    metric "ds.self_ns_per_op" "ns"
      (if d.ops = 0 then 0.0
       else
         (float_of_int (d.op_time - Spans.tracker_time d)
          -. (c *. float_of_int (d.spans + d.ops)))
         /. float_of_int d.ops);
    metric "ds.self_cycles_per_op" "cycles"
      (ratio (s.op_time - Spans.tracker_time s) s.ops);
    metric "ds.attempts_per_op" "count" (ratio s.starts s.ops);
    metric "tracker.reads_per_op" "count" (ratio s.reads s.ops);
    metric "tracker.read_ns" "ns" (ns d.read_time d.reads);
    metric "tracker.read_cycles" "cycles" (ratio s.read_time s.reads);
    metric "tracker.op_bracket_ns" "ns"
      (ns ~reads:2 d.bracket_time d.starts);
    metric "tracker.op_bracket_cycles" "cycles"
      (ratio s.bracket_time s.starts);
    metric "tracker.cas_fail_ratio" "ratio" (ratio s.cas_fails s.cases);
    metric "alloc.ns_per_call" "ns" (ns d.alloc_time d.allocs);
    metric "alloc.cycles_per_call" "cycles"
      (ratio s.alloc_time s.allocs);
    metric "alloc.mag_hit_ratio" "ratio" (ratio hits (hits + misses));
    metric "alloc.depot_ops_per_kop" "1/kop" (per_kop depot);
    metric "alloc.peak_footprint" "blocks"
      (float_of_int (m "peak_footprint"));
    metric "epoch.advances_per_kop" "1/kop" (per_kop sim.epochs);
    metric "epoch.advance_ns" "ns" (ns d.advance_time d.advances);
    metric "epoch.advance_cycles" "cycles"
      (ratio s.advance_time s.advances);
    metric "reclaimer.retire_ns" "ns" (ns d.retire_time d.retires);
    metric "reclaimer.retire_cycles" "cycles"
      (ratio s.retire_time s.retires);
    metric "reclaimer.sweep_ns" "ns" (ns d.sweep_time d.sweeps);
    metric "reclaimer.sweep_cycles" "cycles"
      (ratio s.sweep_time s.sweeps);
    metric "reclaimer.examined_per_sweep" "blocks"
      (ratio (m "sweep_examined") (m "sweeps"));
    metric "reclaimer.freed_ratio" "ratio"
      (ratio (m "sweep_freed") (m "sweep_examined"));
    metric "reclaimer.snapshot_entries_per_sweep" "count"
      (ratio (m "sweep_snapshot_entries") (m "sweeps"));
    metric "handoff.drain_ns" "ns"
      (ns dom.service.drain_time dom.service.drains);
    metric "handoff.drain_cycles" "cycles"
      (ratio svc.drain_time svc.drains);
    metric "handoff.blocks_per_drain" "blocks"
      (ratio (m "handoff_drained") svc.drains);
    metric "handoff.idle_drain_ratio" "ratio"
      (ratio svc.idle svc.drains);
    metric "handoff.backlog_peak" "blocks"
      (float_of_int svc.backlog_peak);
    metric "sim.fence_cycles_per_op" "cycles"
      (charged [ Ibr_obs.Probe.K_fence ]);
    metric "sim.cas_cycles_per_op" "cycles"
      (charged [ Ibr_obs.Probe.K_cas; Ibr_obs.Probe.K_cas_fail ]);
    metric "sim.scan_reservation_cycles_per_op" "cycles"
      (charged [ Ibr_obs.Probe.K_scan_reservation ]);
    metric "sim.op_cycle_share" "ratio"
      (ratio s.op_time sim.worker_cycles);
    metric "sim.unwound_cycle_share" "ratio"
      (ratio sim.residue sim.worker_cycles);
    metric "gc.minor_words_per_op" "words"
      (if sim_plain.total.ops = 0 then 0.0
       else sim_plain.minor_words /. float_of_int sim_plain.total.ops);
    metric "trace_overhead_pct" "%"
      (let plain = Legs.ops_per_s dom_plain in
       if plain = 0.0 then 0.0
       else 100.0 *. (plain -. Legs.ops_per_s dom) /. plain) ]
  |> List.filter (fun m -> not (List.mem m.name zero_everywhere))

let per_layer w ~seed ~seconds =
  let c = Spans.clock_cost_ns () in
  Printf.printf "  clock read: %.2f ns\n" c;
  let slice = seconds /. float_of_int (2 * List.length Legs.schemes) in
  let transparency_failures = ref 0 in
  let per_scheme scheme =
    let run backend traced = Legs.run w ~scheme ~backend ~traced ~seed in
    let sim_plain = run Legs.Sim false in
    let sim = run Legs.Sim true in
    let dom_plain = run (Legs.Domains slice) false in
    let dom = run (Legs.Domains slice) true in
    let a = sim_plain.stats and b = sim.stats in
    if
      not
        (a.ops = b.ops && a.makespan = b.makespan
         && a.avg_unreclaimed = b.avg_unreclaimed)
    then begin
      incr transparency_failures;
      Printf.printf "  %s: the tracker wrapper changed the sim leg\n" scheme
    end;
    Printf.printf
      "  %s sim attribution: op spans %.4f, unwound ops %.4f of worker cycles\n"
      scheme
      (ratio sim.total.op_time sim.worker_cycles)
      (ratio sim.residue sim.worker_cycles);
    ( [ sim_plain; sim; dom_plain; dom ],
      layer_metrics ~c ~sim_plain ~sim ~dom_plain ~dom scheme )
  in
  let results = List.map per_scheme Legs.schemes in
  let legs = List.concat_map fst results in
  List.iter print_leg legs;
  report ~legs
    ~failed:(legs_failed legs + !transparency_failures)
    (List.concat_map snd results)

(* Provenance: every workload's inputs and legs, and the kind each
   metric unit stands for, as one JSON object. *)
let describe () =
  let open Ibr_obs.Json in
  let int n = Num (float_of_int n) in
  let workload (w : Legs.workload) =
    let mix = w.spec.mix in
    Obj
      [ ("name", Str w.name); ("why", Str w.why); ("shape", Str (Legs.shape w));
        ("loop", Str "closed"); ("ds", Str w.ds);
        ("key_range", int w.spec.key_range);
        ("prefill_fraction", Num w.spec.prefill_fraction);
        ( "mix",
          Obj
            [ ("label", Str (Ibr_harness.Workload.mix_name mix));
              ("insert_pct", int mix.insert_pct);
              ("remove_pct", int mix.remove_pct);
              ("scan_pct", int mix.scan_pct) ] );
        ("background_reclaim", Bool w.background);
        ( "legs",
          Arr
            [ Obj
                [ ("backend", Str "sim"); ("threads", int w.sim_threads);
                  ("cores", int w.sim_cores);
                  ("horizon_cycles", int w.sim_horizon);
                  ("faults", Str (Ibr_harness.Runner_intf.faults_name w.sim_faults));
                  ("legs_per_scheme", int w.sim_reps) ];
              Obj
                [ ("backend", Str "domains");
                  ("worker_domains", int w.domain_workers);
                  ("reclaimer_domain", Bool w.background);
                  ("leg_seconds", Num leg_seconds) ] ] ) ]
  in
  let reference =
    Obj
      [ ("what",
         Str
           "a shared 16384-slot set of the standard library, compare-and-set \
            inserts and removes, on as many domains as a Domains leg uses; \
            it runs before the first round and after each one");
        ("seconds", Num ref_seconds);
        ("rate_per_domain", Num ref_rate_per_domain);
        ("scaling",
         Str
           "end-to-end wall-clock figures are reported at the reference \
            machine's speed: a leg's throughput is divided by, and its \
            times multiplied by, the reference load's rate around its round \
            over rate_per_domain times the domains; set-up time takes the \
            run's median factor; per-layer _ns figures are not scaled") ]
  in
  print_endline
    (encode
       (Obj
          [ ("schemes", Arr (List.map (fun s -> Str s) Legs.schemes));
            ("workloads", Arr (List.map workload Legs.workloads));
            ("reference_load", reference);
            ( "kind_of_unit",
              Obj
                (List.map
                   (fun u -> (u, Str (kind_of_unit u)))
                   (wall_units
                   @ [ "ops/kcycle"; "blocks"; "ratio"; "cycles"; "count";
                       "1/kop"; "words" ])) ) ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0
  and trace = ref 0 in
  let names =
    String.concat " | " (List.map (fun (w : Legs.workload) -> w.name) Legs.workloads)
  in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME  " ^ names);
      ("--seed", Arg.Set_int seed, "N  workload seed (prefill and op streams)");
      ("--seconds", Arg.Set_float seconds,
       "S  wall-clock time the Domains legs measure, in total");
      ("--trace", Arg.Set_int trace,
       "0|1  0: end-to-end metrics; 1: per-layer metrics");
      ("--describe", Arg.Unit (fun () -> describe (); exit 0),
       "  print the workloads' provenance as JSON and exit") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match Legs.find !workload with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload names;
      exit 2
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  Printf.printf "%s: %s; seed %d\n" w.name (Legs.shape w) !seed;
  try
    if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds
    else per_layer w ~seed:!seed ~seconds:!seconds
  with Legs.Leg_failed msg ->
    Printf.printf "leg failed: %s\n" msg;
    Printf.printf
      "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}\n%!";
    exit 1
