(* The paper's evaluation, campaign by campaign (DESIGN.md §3 indexes
   them).  A campaign builds its points with ordinary list code, runs
   them through [run], and reads its claims off the rows it got back.
   State that only one campaign needs (fence costs, histograms, fault
   counting) stays in that campaign's body. *)

open Ibr_core

type backend = Sim | Domains

type driver =
  | Closed
  | Service of { watchdog : (int * int) option; neutralize : bool }

type point = {
  tracker : string;
  ds : string;
  spec : Workload.spec;
  threads : int;
  cores : int;
  horizon : int;
  seed : int;
  faults : Runner_intf.faults;
  backend : backend;
  driver : driver;
  label : string option;
  tweak : Tracker_intf.config -> Tracker_intf.config;
}

let point ?spec ?(cores = 72) ?(seed = 0xbeef)
    ?(faults = Runner_intf.No_faults) ?(backend = Sim) ?(driver = Closed)
    ?label ?(tweak = Fun.id) ~threads ~horizon tracker ds =
  let spec = match spec with Some s -> s | None -> Workload.spec_for ds in
  { tracker; ds; spec; threads; cores; horizon; seed; faults; backend; driver;
    label; tweak }

let run p =
  let cfg =
    { Run_engine.threads = p.threads; seed = p.seed; spec = p.spec;
      tracker_cfg = p.tweak (Tracker_intf.default_config ~threads:p.threads ());
      faults = p.faults }
  in
  let exec =
    match p.backend with
    | Sim ->
      let c =
        Runner_sim.default_config ~threads:p.threads ~horizon:p.horizon
          ~cores:p.cores ~seed:p.seed ~faults:p.faults ~spec:p.spec ()
      in
      Run_engine.sim_exec
        ~sched:(Ibr_runtime.Sched.create (Runner_sim.sched_config c))
        ~horizon:p.horizon
    | Domains ->
      (* One domain per worker; 1 virtual cycle ~ 1 us, so the horizon
         is a wall-clock duration. *)
      Run_engine.domains_exec
        ~threads:
          (match p.driver with
           | Closed -> p.threads
           | Service _ -> Service.fleet p.threads)
        ~duration_s:(float_of_int p.horizon /. 1e6) ~seed:p.seed
        ~faults:p.faults ()
  in
  Option.map
    (fun (tracker_name, m) ->
       let row =
         match p.driver with
         | Closed -> Run_engine.run ~exec ~tracker_name ~ds_name:p.ds m cfg
         | Service { watchdog; neutralize } ->
           Service.serve ~exec ~horizon:p.horizon ~tracker_name
             ~ds_name:p.ds m cfg
             ~watchdog:
               (Option.map (fun (period, grace) -> (period, grace, neutralize))
                  watchdog)
       in
       match p.label with None -> row | Some l -> { row with tracker = l })
    (Run_engine.resolve ~tracker_name:p.tracker ~ds_name:p.ds)

type claim = { claim : string; holds : bool; detail : string }

type report = {
  text : string;
  claims : claim list;
  files : (string * string) list;
}

type t = { name : string; run : unit -> report }

let claim ?(detail = "") claim holds = { claim; holds; detail }

(* ---- rendering ---- *)

let pad w s =
  let n = abs w - String.length s in
  if n <= 0 then s
  else if w < 0 then s ^ String.make n ' '
  else String.make n ' ' ^ s

let lines l = String.concat "" (List.map (fun s -> s ^ "\n") l)

let table cols rows =
  let line cells =
    String.concat " " (List.map2 (fun (_, w, _) s -> pad w s) cols cells) in
  lines
    (line (List.map (fun (h, _, _) -> h) cols)
     :: List.map (fun r -> line (List.map (fun (_, _, cell) -> cell r) cols))
       rows)

let section heading body = Printf.sprintf "== %s ==\n%s\n" heading body

let metric name r = Int.to_string (Stats.metric r name)

let rows_csv ?(tagged = false) rows =
  let header, row =
    if tagged then (Stats.csv_header_tagged, Stats.to_csv_row_tagged)
    else (Stats.csv_header, Stats.to_csv_row)
  in
  lines (header () :: List.map row rows)

(* ---- figures: runs are (series label, x, row) triples ---- *)

let throughput (r : Stats.t) = r.throughput
let space (r : Stats.t) = r.avg_unreclaimed

(* Run [mk x] for each [x], keeping the runs the tracker can do. *)
let sweep label xs mk =
  List.filter_map (fun x -> Option.map (fun r -> (label, x, r)) (run (mk x)))
    xs

let rows_of runs = List.map (fun (_, _, r) -> r) runs

(* One series per label, in first-appearance order. *)
let figure fig_id title ylabel y runs =
  let labels =
    List.fold_left
      (fun ls (l, _, _) -> if List.mem l ls then ls else ls @ [ l ]) [] runs
  in
  { Chart.fig_id; title; ylabel;
    series =
      List.map
        (fun label ->
           { Chart.label;
             points =
               List.filter_map
                 (fun (l, x, r) -> if l = label then Some (x, y r) else None)
                 runs })
        labels }

let plot ?(claims = []) ?(extra = []) figs =
  { text = String.concat "" (List.map Chart.to_string figs);
    claims;
    files =
      List.map (fun (f : Chart.figure) -> (f.fig_id ^ ".csv", Chart.to_csv f))
        figs
      @ extra }

let lineup ds =
  let maker = Ibr_ds.Ds_registry.find_exn ds in
  List.filter
    (fun (e : Registry.entry) -> Ibr_ds.Ds_registry.compatible maker e.tracker)
    Registry.paper_set

(* Fig. 8-10: every compatible scheme over a thread ladder spanning both
   sides of the 72-core mark.  Oversubscribed runs need a horizon
   several stall-lengths long to reach Fig. 9's steady state. *)
let ladder_runs mix ds =
  let spec = Workload.spec_for ~mix ds in
  List.concat_map
    (fun (e : Registry.entry) ->
       sweep e.name [ 1; 4; 16; 36; 72; 96 ] (fun threads ->
         point ~spec ~seed:(0xf16 + threads) ~threads
           ~horizon:(if threads > 72 then 600_000 else 130_000) e.name ds))
    (lineup ds)

(* Fig. 9 and 10 omit the leaking baseline. *)
let space_figure fig_id mix ds runs =
  figure fig_id
    (Printf.sprintf "retired-unreclaimed, %s, %s" ds (Workload.mix_name mix))
    "avg blocks at op start" space
    (List.filter (fun (l, _, _) -> l <> "NoMM") runs)

(* Appendix A.6, read off a panel's rows: IBR's throughput sits between
   HP's and ~EBR's, and oversubscribed, so does its space. *)
let headline_checks rows =
  let at threads y =
    match
      List.map
        (fun t ->
           List.find_opt
             (fun (r : Stats.t) -> r.tracker = t && r.threads = threads) rows)
        [ "HP"; "2GEIBR"; "EBR" ]
    with
    | [ Some hp; Some ibr; Some ebr ] -> Some (y hp, y ibr, y ebr)
    | _ -> None
  in
  List.filter_map Fun.id
    [ Option.map
        (fun (hp, ibr, ebr) ->
           claim "throughput: HP <= IBR <= ~EBR (36 threads)"
             (hp <= ibr && ibr <= ebr *. 1.15)
             ~detail:(Printf.sprintf "HP=%.2f 2GEIBR=%.2f EBR=%.2f" hp ibr ebr))
        (at 36 throughput);
      Option.map
        (fun (hp, ibr, ebr) ->
           claim "space oversubscribed: HP-like <= IBR <= EBR (96 threads)"
             (hp <= ibr *. 1.05 && ibr <= ebr *. 1.05)
             ~detail:(Printf.sprintf "HP=%.1f 2GEIBR=%.1f EBR=%.1f" hp ibr ebr))
        (at 96 space) ]

let panel ds n =
  let mix = Workload.write_dominated in
  let runs = ladder_runs mix ds in
  let rows = rows_of runs in
  plot ~claims:(headline_checks rows)
    ~extra:[ (Printf.sprintf "fig8-9-%s-rows.csv" ds, rows_csv rows) ]
    [ figure ("fig8" ^ n)
        (Printf.sprintf "throughput, %s, %s" ds (Workload.mix_name mix))
        "ops per Mcycle" throughput runs;
      space_figure ("fig9" ^ n) mix ds runs ]

let fig10 () =
  let mix = Workload.read_dominated in
  let runs = ladder_runs mix "nmtree" in
  plot ~extra:[ ("fig10-rows.csv", rows_csv (rows_of runs)) ]
    [ space_figure "fig10" mix "nmtree" runs ]

let fig7_table () =
  let b f ((_, p) : string * Tracker_intf.properties) = string_of_bool (f p) in
  table
    [ ("scheme", -12, fst);
      ("robust", -6, b (fun p -> p.robust));
      ("unreserve", -9, b (fun p -> p.needs_unreserve));
      ("mutable", -8, b (fun p -> p.mutable_pointers));
      ("slots", -6, b (fun p -> p.bounded_slots));
      ("ptr+w", -7, fun (_, p) -> Int.to_string p.pointer_tag_words);
      ("fence/read", 0, b (fun p -> p.fence_per_read)) ]
    (Registry.fig7_rows ())

(* §5's tuning discussion: space grows ~linearly in k, throughput stays
   flat for small k. *)
let k_sweep () =
  let runs =
    sweep "2GEIBR" [ 1; 5; 10; 20; 30; 40; 50 ] (fun k ->
      point ~threads:16 ~horizon:150_000
        ~tweak:(fun c -> { c with empty_freq = k }) "2GEIBR" "hashmap")
  in
  let fig suffix ylabel y =
    figure ("k-sweep-" ^ suffix)
      "empty_freq sweep, 2GEIBR on hashmap, 16 threads" ylabel y runs in
  plot ~extra:[ ("k-sweep-rows.csv", rows_csv (rows_of runs)) ]
    [ fig "throughput" "ops per Mcycle" throughput;
      fig "space" "avg unreclaimed" space ]

(* Sensitivity of the HP-vs-IBR gap to the fence cost. *)
let fence () =
  let saved = !Prim.costs in
  Fun.protect ~finally:(fun () -> Prim.set_costs saved) (fun () ->
    let runs =
      List.concat_map
        (fun name ->
           sweep name [ 5; 20; 55; 120; 250 ] (fun fence ->
             Prim.set_costs (Ibr_runtime.Cost.with_fence saved fence);
             point ~threads:16 ~horizon:120_000 name "hashmap"))
        [ "HP"; "HE"; "2GEIBR"; "EBR" ]
    in
    plot
      [ figure "ablation-fence" "fence-cost sensitivity, hashmap, 16 threads"
          "ops per Mcycle (x = fence cost)" throughput runs ])

(* born_before update strategies under list contention. *)
let tagibr () =
  let spec = { (Workload.spec_for "list") with key_range = 48 } in
  let runs =
    List.concat_map
      (fun name ->
         sweep name [ 4; 16; 36; 72 ] (fun threads ->
           point ~spec ~threads ~horizon:120_000 name "list"))
      [ "TagIBR"; "TagIBR-FAA"; "TagIBR-WCAS"; "TagIBR-TPA" ]
  in
  plot
    [ figure "ablation-tagibr"
        "born_before strategies on a contended 48-key list" "ops per Mcycle"
        throughput runs ]

(* ---- tables of rows ---- *)

(* Every YCSB-like profile on a capability-matched rideable, at one
   thread count: the axis is the operation mix, not scaling. *)
let profile_rideables =
  [ ("A", "hashmap"); ("B", "hashmap"); ("C", "hashmap"); ("D", "msqueue");
    ("E", "nmtree"); ("F", "rhashmap") ]

let profiles () =
  let rows =
    List.concat_map
      (fun (p, ds) ->
         let mix = Option.get (Workload.find_mix p) in
         let spec = Workload.spec_for ~mix ds in
         List.filter_map
           (fun (e : Registry.entry) ->
              run (point ~spec ~seed:0x9c5b ~threads:16 ~horizon:60_000 e.name
                     ds))
           (lineup ds))
      profile_rideables
  in
  let cell scheme p =
    match
      List.find_opt (fun (r : Stats.t) -> r.tracker = scheme && r.mix = p) rows
    with
    | None -> "--"
    | Some r -> Printf.sprintf "%.0f / %.0f" r.throughput r.avg_unreclaimed
  in
  let md cells = "| " ^ String.concat " | " cells ^ " |\n" in
  { text =
      section "workload profiles (scheme x YCSB mix, t=16, cells thr / space)"
        (md ("scheme"
             :: List.map (fun (p, ds) -> Printf.sprintf "%s (%s)" p ds)
               profile_rideables)
         ^ "|---|"
         ^ String.concat "" (List.map (fun _ -> "---|") profile_rideables)
         ^ "\n"
         ^ String.concat ""
             (List.map
                (fun (e : Registry.entry) ->
                   md (e.name :: List.map (fun (p, _) -> cell e.name p)
                         profile_rideables))
                Registry.paper_set));
    claims = [];
    files = [ ("profiles.csv", rows_csv ~tagged:true rows) ] }

(* ---- robustness (DESIGN.md §7) ---- *)

let robust_points
    ?(trackers = [ "EBR"; "QSBR"; "HP"; "HE"; "2GEIBR"; "DEBRA"; "DEBRA+" ])
    ?(profiles =
      [ "none"; "stall-storm"; "crash"; "crash+capped"; "crash+watchdog";
        "stall+watchdog"; "stall+neutralize" ])
    ?(horizons = [ 60_000; 120_000; 240_000 ]) () =
  (* A small, high-churn structure: a robust scheme's crashed interval
     pins at most the pre-crash working set, so a small one saturates
     early, visibly flat next to EBR's linear growth. *)
  let spec = { (Workload.spec_for "hashmap") with key_range = 1024 } in
  List.concat_map
    (fun tracker ->
       List.concat_map
         (fun profile ->
            let faults = Option.get (Runner_intf.faults_of_string profile) in
            List.map
              (fun horizon ->
                 point ~spec ~cores:8 ~seed:0xfa17 ~faults
                   ~label:(tracker ^ "/" ^ profile) ~threads:12 ~horizon
                   tracker "hashmap")
              horizons)
         profiles)
    trackers

let robust_rows points =
  List.filter_map (fun p -> fst (Fault.with_counting (fun () -> run p))) points

(* Fault runs are horizon-bound, so the makespan column is the run
   length. *)
let robust_table =
  table
    [ ("tracker/profile", -20, fun (r : Stats.t) -> r.tracker);
      ("backend", -7, fun r -> r.backend);
      ("horizon", 8, fun r -> Int.to_string r.makespan);
      ("ops", 8, fun r -> Int.to_string r.ops);
      ("peak-unr", 9, fun r -> Int.to_string r.peak_unreclaimed);
      ("peak-fp", 9, metric "peak_footprint");
      ("oom", 7, metric "oom_events");
      ("retries", 7, metric "pressure_retries");
      ("crsh", 4, metric "crashes");
      ("ejct", 4, metric "ejections");
      ("ntrl", 4, metric "neutralizations");
      ("rcvr", 4, metric "recovered") ]

let robustness_checks rows =
  let runs tracker profile =
    List.filter (fun (r : Stats.t) -> r.tracker = tracker ^ "/" ^ profile) rows
  in
  let best better = function
    | [] -> None
    | r :: rs ->
      Some (List.fold_left (fun a b -> if better b a then b else a) r rs)
  in
  let longer (a : Stats.t) (b : Stats.t) = a.makespan > b.makespan in
  let longest t p = best longer (runs t p) in
  let shortest t p = best (fun a b -> longer b a) (runs t p) in
  (* The longest run and the next shorter one: the robust schemes'
     pinned set grows until the pre-crash population has churned
     through, so boundedness is a claim about the ladder's tail. *)
  let tail t p =
    Option.bind (longest t p) (fun (l : Stats.t) ->
      Option.map (fun m -> (m, l))
        (best longer
           (List.filter (fun (r : Stats.t) -> r.makespan < l.makespan)
              (runs t p))))
  in
  let both a b = match a, b with Some a, Some b -> Some (a, b) | _ -> None in
  let peaks (a : Stats.t) (b : Stats.t) =
    Printf.sprintf "peak %d @%d -> %d @%d" a.peak_unreclaimed a.makespan
      b.peak_unreclaimed b.makespan
  in
  let oom r = Stats.metric r "oom_events" in
  let robust = [ "HP"; "HE"; "2GEIBR" ] in
  List.filter_map Fun.id
    ([ (match both (shortest "EBR" "crash") (longest "EBR" "crash") with
        | Some (s, l) when longer l s ->
          Some
            (claim "crash: EBR peak unreclaimed grows with run length"
               (l.peak_unreclaimed > 2 * s.peak_unreclaimed)
               ~detail:(peaks s l))
        | _ -> None) ]
     @ List.map
         (fun t ->
            Option.map
              (fun ((m : Stats.t), (l : Stats.t)) ->
                 (* Doubling the run adds at most 30%, plus a small floor
                    for near-zero HP-like peaks. *)
                 let bound =
                   m.peak_unreclaimed
                   + max (3 * m.peak_unreclaimed / 10) 32 in
                 claim
                   (Printf.sprintf
                      "crash: %s peak unreclaimed saturates (flat tail)" t)
                   (l.peak_unreclaimed <= bound)
                   ~detail:(Printf.sprintf "%s (bound %d)" (peaks m l) bound))
              (tail t "crash"))
         robust
     @ [ Option.map
           (fun ((m : Stats.t), (l : Stats.t)) ->
              claim "crash: EBR peak unreclaimed still climbing on the tail"
                (10 * l.peak_unreclaimed >= 14 * m.peak_unreclaimed)
                ~detail:(peaks m l))
           (tail "EBR" "crash");
         Option.map
           (fun r ->
              claim "crash+capped: EBR exhausts the capped allocator"
                (oom r > 0) ~detail:(Printf.sprintf "oom_events=%d" (oom r)))
           (longest "EBR" "crash+capped") ]
     @ List.map
         (fun t ->
            Option.map
              (fun r ->
                 claim
                   (Printf.sprintf
                      "crash+capped: %s survives the capped heap" t)
                   (oom r = 0)
                   ~detail:
                     (Printf.sprintf "oom_events=%d retries=%d" (oom r)
                        (Stats.metric r "pressure_retries")))
              (longest t "crash+capped"))
         robust
     @ [ Option.map
           (fun ((w : Stats.t), (c : Stats.t)) ->
              claim "crash+watchdog: ejection restores EBR's bound"
                (Stats.metric w "ejections" >= 1
                 && 2 * w.peak_unreclaimed < c.peak_unreclaimed)
                ~detail:
                  (Printf.sprintf "ejections=%d peak %d (vs %d unwatched)"
                     (Stats.metric w "ejections") w.peak_unreclaimed
                     c.peak_unreclaimed))
           (both (longest "EBR" "crash+watchdog") (longest "EBR" "crash")) ]
     (* DESIGN.md §12: the storm's stall regime plus a neutralizing
        watchdog keeps the footprint bounded and writes nobody off. *)
     @ List.concat_map
         (fun t ->
            [ Option.map
                (fun ((n : Stats.t), (s : Stats.t)) ->
                   claim
                     (Printf.sprintf
                        "stall+neutralize: %s peak stays below the storm's" t)
                     (2 * n.peak_unreclaimed < s.peak_unreclaimed)
                     ~detail:
                       (Printf.sprintf "peak %d (vs %d unwatched)"
                          n.peak_unreclaimed s.peak_unreclaimed))
                (both (longest t "stall+neutralize") (longest t "stall-storm"));
              Option.map
                (fun n ->
                   let m = Stats.metric n in
                   claim
                     (Printf.sprintf
                        "stall+neutralize: %s healed, never ejected" t)
                     (m "ejections" = 0 && m "neutralizations" >= 1)
                     ~detail:
                       (Printf.sprintf
                          "neutralizations=%d recovered=%d ejections=%d"
                          (m "neutralizations") (m "recovered")
                          (m "ejections")))
                (longest t "stall+neutralize") ])
         [ "EBR"; "DEBRA" ])

let robust () =
  let rows = robust_rows (robust_points ()) in
  { text =
      section "robustness campaign (fault profiles on hashmap)"
        (robust_table rows);
    claims = robustness_checks rows;
    files = [ ("robust.csv", rows_csv ~tagged:true rows) ] }

(* The hardware leg: the profiles Domains can honor (a crashed domain
   cannot be simulated, only a stalled one) on a short wall-clock
   ladder.  Not deterministic, so the one claim is that the watchdog
   ejects the parked worker. *)
let robust_domains () =
  let rows =
    robust_points ~trackers:[ "EBR"; "HP"; "2GEIBR" ]
      ~profiles:[ "none"; "stall-storm"; "stall+watchdog"; "stall+neutralize" ]
      ~horizons:[ 60_000; 120_000 ] ()
    |> List.map (fun p -> { p with backend = Domains; threads = 4; cores = 4 })
    |> robust_rows
  in
  let ejections =
    List.fold_left
      (fun n (r : Stats.t) ->
         if String.ends_with ~suffix:"+watchdog" r.tracker then
           n + Stats.metric r "ejections"
         else n)
      0 rows
  in
  { text =
      section "robustness campaign (domains backend, wall clock)"
        (robust_table rows);
    claims =
      [ claim "wall-clock watchdog ejected the parked worker" (ejections > 0)
          ~detail:(Printf.sprintf "%d ejections" ejections) ];
    files = [ ("robust-domains.csv", rows_csv ~tagged:true rows) ] }

(* ---- service (DESIGN.md §10, §12) ---- *)

(* Every sound scheme serves the same open-loop profile (Poisson
   arrivals with a diurnal ramp and two spikes, Zipf keys, six workers
   churning through four census slots) and is held to the same SLO. *)
let service () =
  let rows =
    List.filter_map
      (fun (e : Registry.entry) ->
         run
           (point
              ~driver:(Service { watchdog = None; neutralize = false })
              ~cores:8 ~seed:0xca11 ~threads:4 ~horizon:150_000 e.name
              "hashmap"))
      Registry.all
  in
  let pass r = Service.slo_failures r = [] in
  let passed = List.filter pass rows in
  { text =
      section "service: open-loop SLO certification (hashmap, churn)"
        (table
           [ ("tracker", -12, fun (r : Stats.t) -> r.tracker);
             ("arrivals", 8, metric "svc_arrivals");
             ("completed", 9, fun r -> Int.to_string r.ops);
             ("att/det", 7,
              fun r ->
                Printf.sprintf "%3d/%-3d" (Stats.metric r "svc_attaches")
                  (Stats.metric r "svc_detaches"));
             ("p50", 7, metric "svc_latency_p50");
             ("p90", 7, metric "svc_latency_p90");
             ("p99", 7, metric "svc_latency_p99");
             ("p999", 7, metric "svc_p999");
             ("peak", 8, metric "peak_footprint");
             (* The verdict column sits two spaces out. *)
             (" SLO", 0, fun r -> if pass r then " PASS" else " FAIL") ]
           rows);
    claims =
      [ claim "every scheme meets the SLO"
          (List.length passed = List.length rows)
          ~detail:
            (Printf.sprintf "%d of %d pass" (List.length passed)
               (List.length rows)) ];
    files = [ ("service.csv", rows_csv ~tagged:true rows) ] }

(* The same service on DEBRA+ under the same live stalls, once per
   watchdog remedy.  Every victim is alive and resumes, so ejecting one
   caught mid-traversal can readmit use-after-free: both runs count
   faults, and only the neutralizing run must have none. *)
let service_heal () =
  let remedy neutralize =
    (* Stalls fire only when fibers outnumber cores: 6 on 4 here. *)
    Fault.with_counting (fun () ->
      Option.get
        (run
           (point
              ~driver:(Service { watchdog = Some (5_000, 2); neutralize })
              ~faults:(Stall_storm { stall_prob = 0.3; stall_len = 30_000 })
              ~cores:4 ~seed:0x43a1 ~threads:4 ~horizon:150_000 "DEBRA+"
              "list")))
  in
  let ((ej, ej_faults) as eject) = remedy false in
  let ((nt, nt_faults) as neut) = remedy true in
  let m = Stats.metric in
  let col h w f = (h, w, fun (_, (r, _)) -> Int.to_string (f r)) in
  { text =
      section "service: watchdog remedy under live stalls (DEBRA+)"
        (table
           [ ("remedy", -12, fst);
             col "completed" 9 (fun (r : Stats.t) -> r.ops);
             col "p99" 7 (fun r -> m r "svc_latency_p99");
             col "p999" 7 (fun r -> m r "svc_p999");
             col "ejct" 5 (fun r -> m r "ejections");
             col "ntrl" 5 (fun r -> m r "neutralizations");
             col "rcvr" 5 (fun r -> m r "recovered");
             ("faults", 7, fun (_, (_, f)) -> Int.to_string f) ]
           [ ("eject", eject); ("neutralize", neut) ])
      ^ (if ej_faults = 0 then ""
         else
           Printf.sprintf
             "note: ejecting live workers readmitted %d memory fault(s)\n"
             ej_faults);
    claims =
      [ claim "eject remedy wrote off live workers (ejections > 0)"
          (m ej "ejections" > 0);
        claim "neutralize remedy never ejected" (m nt "ejections" = 0);
        claim "neutralize remedy signalled and healed (ntrl > 0, rcvr > 0)"
          (m nt "neutralizations" > 0 && m nt "recovered" > 0);
        claim "neutralized run is fault-free" (nt_faults = 0) ];
    files = [ ("service-heal.csv", rows_csv ~tagged:true [ ej; nt ]) ] }

(* ---- BENCH_6.json (DESIGN.md §9) ---- *)

(* Each sweeping paper-set scheme runs the same seeded sim workload with
   reclamation inline and through the handoff service.  One spare core
   gives the service fiber its own, as a dedicated reclaimer thread
   would.  The [retire_cost] histogram times exactly the mutator-side
   retire path; the runner re-baselines it per run. *)
let bench6 () =
  let spec = { (Workload.spec_for "hashmap") with key_range = 512 } in
  Ibr_obs.Probe.enable_hist ();
  let row tracker background =
    let r =
      Option.get
        (run
           (point ~spec ~cores:9 ~seed:0xb6 ~threads:8 ~horizon:100_000
              ~tweak:(fun c -> { c with background_reclaim = background })
              tracker "hashmap"))
    in
    let p99 =
      match Ibr_obs.Probe.cost_hist () with
      | Some h ->
        let _, _, _, p99, _ = Ibr_obs.Metrics.summary h in
        p99
      | None -> 0
    in
    let peak = Stats.metric r "peak_footprint" in
    ( Printf.sprintf "%-8s background=%-5b thr=%10.0f peak=%6d retire_p99=%4d"
        tracker background r.throughput peak p99,
      Ibr_obs.Json.(
        encode
          (Obj
             [ ("tracker", Str tracker); ("background", Bool background);
               ("throughput", Num r.throughput);
               ("peak_footprint", Num (float_of_int peak));
               ("retire_p99", Num (float_of_int p99)) ])) )
  in
  let rows =
    List.concat_map
      (fun s ->
         let off = row s false in
         let on = row s true in
         [ off; on ])
      [ "EBR"; "QSBR"; "HP"; "HE"; "TagIBR"; "2GEIBR" ]
  in
  Ibr_obs.Probe.stop ();
  { text =
      lines
        ("== bench: background-reclaim ablation (sim, deterministic) =="
         :: List.map fst rows);
    claims = [];
    files =
      [ ("BENCH_6.json",
         "{\n  \"rows\": [\n"
         ^ String.concat ",\n" (List.map (fun (_, j) -> "    " ^ j) rows)
         ^ "\n  ]\n}\n") ] }

(* ---- the front end ---- *)

let all =
  let c name run = { name; run } in
  [ c "fig7" (fun () ->
      { text = section "Fig. 7: scheme tradeoffs" (fig7_table ());
        claims = []; files = [] });
    c "fig8a" (fun () -> panel "list" "a");
    c "fig8b" (fun () -> panel "hashmap" "b");
    c "fig8c" (fun () -> panel "nmtree" "c");
    c "fig8d" (fun () -> panel "bonsai" "d");
    c "fig10" fig10; c "k-sweep" k_sweep; c "fence" fence; c "tagibr" tagibr;
    c "profiles" profiles; c "robust" robust;
    c "robust-domains" robust_domains; c "service" service;
    c "service-heal" service_heal; c "bench6" bench6 ]

let claim_line c =
  Printf.sprintf "%s: %s%s" (if c.holds then "PASS" else "FAIL") c.claim
    (if c.detail = "" then "" else " (" ^ c.detail ^ ")")

let main campaigns args =
  let known name = List.exists (fun c -> c.name = name) campaigns in
  let rec parse out names = function
    | "--out" :: dir :: rest -> parse (Some dir) names rest
    | name :: rest when known name -> parse out (name :: names) rest
    | arg :: _ -> Error arg
    | [] -> Ok (out, names)
  in
  match parse None [] args with
  | Error arg ->
    Printf.eprintf
      "error: unknown argument %S\nusage: [--out DIR] [CAMPAIGN ...]\n\
       campaigns: %s\n"
      arg (String.concat " " (List.map (fun c -> c.name) campaigns));
    2
  | Ok (out, names) ->
    Option.iter
      (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755) out;
    let failed = ref 0 in
    List.iter
      (fun c ->
         if names = [] || List.mem c.name names then begin
           let r = c.run () in
           print_string r.text;
           List.iter
             (fun cl ->
                if not cl.holds then incr failed;
                print_endline (claim_line cl))
             r.claims;
           let written =
             match out with
             | None -> []
             | Some dir ->
               List.map
                 (fun (file, body) ->
                    let path = Filename.concat dir file in
                    Out_channel.with_open_bin path (fun oc ->
                      output_string oc body);
                    path)
                 r.files
           in
           List.iter (Printf.printf "wrote %s\n") written;
           if r.claims <> [] || written <> [] then print_newline ()
           else flush stdout
         end)
      campaigns;
    if !failed > 0 then begin
      Printf.eprintf "%d claim(s) failed\n" !failed;
      1
    end
    else 0
