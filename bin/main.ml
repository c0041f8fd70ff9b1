(* Command-line microbenchmark runner, mirroring the artifact's
   `bin/main -r <rideable> -t <threads> -i <interval> -d tracker=<mm>`
   workflow (paper appendix A.5) on the simulator or real-domains
   backend, including the parharness-style `--meta` Cartesian sweeps
   (`--meta t:4:16:36 --meta d:EBR:2GEIBR` runs all six combinations).
   Prints one result row per configuration, optionally appending CSV. *)

open Cmdliner
module Cli = Ibr_harness.Cli
module Campaign = Ibr_harness.Campaign

(* The tracker-config flags, applied alike to closed-loop runs and
   --service.  [threads] scales --epoch-freq as the paper's n * k. *)
let tweak ~threads ~empty_freq ~epoch_freq ~background_reclaim
    (cfg : Ibr_core.Tracker_intf.config) =
  { cfg with
    empty_freq = Option.value empty_freq ~default:cfg.empty_freq;
    epoch_freq =
      (match epoch_freq with Some k -> k * threads | None -> cfg.epoch_freq);
    background_reclaim = cfg.background_reclaim || background_reclaim }

(* What closed-loop and service runs share: the spec from --mix and
   --key-range, the refusal of an incompatible pairing, and appending
   a CSV row (the header only when the file is new). *)
let spec_of ~mix ~key_range rideable =
  let base = Ibr_harness.Workload.spec_for ~mix:(Cli.parse_mix mix) rideable in
  match key_range with
  | Some r -> { base with key_range = r }
  | None -> base

let or_incompatible ~tracker ~rideable = function
  | Some r -> r
  | None ->
    Fmt.epr "error: tracker %s is not compatible with rideable %s@." tracker
      rideable;
    exit 1

let append_csv ~header ~row = function
  | None -> ()
  | Some path ->
    let existed = Sys.file_exists path in
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    if not existed then begin
      output_string oc header;
      output_char oc '\n'
    end;
    output_string oc row;
    output_char oc '\n';
    close_out oc;
    Fmt.pr "appended to %s@." path

let run_one ~(base : Cli.base) ~cores ~seed ~backend ~empty_freq ~epoch_freq
    ~key_range ~background_reclaim ~output ~verbose =
  let { Cli.rideable; tracker; threads; interval; mix; faults } = base in
  let spec = spec_of ~mix ~key_range rideable in
  let tweak = tweak ~threads ~empty_freq ~epoch_freq ~background_reclaim in
  (* -i is microseconds on domains: 1 virtual cycle ~ 1 us, so the same
     -i reaches a comparable run length on either backend.  Fault
     profiles the backend cannot honor raise [Unsupported]. *)
  let machine =
    match backend with
    | "sim" -> Campaign.Sim
    | "domains" -> Campaign.Domains
    | s -> failwith (Printf.sprintf "unknown backend %S (sim|domains)" s)
  in
  let r =
    or_incompatible ~tracker ~rideable
      (Campaign.run
         (Campaign.point ~spec ~cores ~seed ~faults:(Cli.parse_faults faults)
            ~backend:machine ~tweak ~threads ~horizon:interval tracker
            rideable))
  in
  if verbose then
    Fmt.pr "cores=%d seed=%d backend=%s costs=%a@." cores seed backend
      Ibr_runtime.Cost.pp !Ibr_core.Prim.costs;
  Fmt.pr "%a@." Ibr_harness.Stats.pp r;
  append_csv output ~header:(Ibr_harness.Stats.csv_header ())
    ~row:(Ibr_harness.Stats.to_csv_row r)

(* ---- open-loop service simulation (--service) ---- *)

let run_service ~rideable ~tracker ~threads ~interval ~mix ~cores ~seed
    ~backend ~tweak ~fleet ~period ~arrival ~zipf ~watchdog ~slo_p50 ~slo_p99
    ~slo_p999 ~slo_peak ~key_range ~output ~verbose =
  let module Service = Ibr_harness.Service in
  let spec = spec_of ~mix ~key_range rideable in
  let arrival =
    match Service.arrival_of_string arrival with
    | Some a -> a
    | None ->
      failwith
        (Printf.sprintf "unknown arrival process %S (poisson|bursty)" arrival)
  in
  let slo =
    let d = Service.default_slo in
    {
      Service.p50 = Option.value slo_p50 ~default:d.Service.p50;
      p99 = Option.value slo_p99 ~default:d.Service.p99;
      p999 = Option.value slo_p999 ~default:d.Service.p999;
      peak_footprint = Option.value slo_peak ~default:d.Service.peak_footprint;
    }
  in
  let fleet = Option.value fleet ~default:(threads + 2) in
  let profile =
    Service.default_profile ~workers:threads ~fleet
      ~cores ~horizon:interval ~seed ~arrival ~period ~zipf_theta:zipf
      ?watchdog:(if watchdog then Some (15_000, 3) else None)
      ~slo ~spec ()
  in
  let profile = { profile with tracker_cfg = tweak profile.tracker_cfg } in
  let r =
    or_incompatible ~tracker ~rideable
      (match backend with
       | "sim" ->
         Service.run_named ~tracker_name:tracker ~ds_name:rideable profile
       | "domains" ->
         (* The fleet workers become real domains; -i (the horizon) is
            a wall-clock duration in microseconds under 1 cycle ~ 1 us. *)
         let exec =
           Ibr_harness.Run_engine.domains_exec ~threads:fleet
             ~duration_s:(float_of_int interval /. 1e6) ~seed
             ~faults:Ibr_harness.Runner_intf.No_faults ()
         in
         Service.run_named_exec ~exec ~tracker_name:tracker
           ~ds_name:rideable profile
       | s -> failwith (Printf.sprintf "unknown backend %S (sim|domains)" s))
  in
  Fmt.pr "%a@." Service.pp r;
  if verbose then Fmt.pr "verdicts: %s@." (Service.verdicts_csv r);
  append_csv output ~header:Service.csv_header ~row:(Service.to_csv_row r);
  (* CI gates on the SLO verdict. *)
  if not r.Service.slo_pass then exit 1

(* ---- model checking (--check / --check-replay) ---- *)

let trace_filename name =
  String.map (fun c -> if c = '/' then '_' else c) name ^ ".trace"

(* Run the scenario suite (or one scenario) under bounded systematic
   exploration; shrink and optionally save any witness found.  Exit
   status reflects expectation mismatches, so CI can gate on it. *)
let run_check ~target ~bound ~budget ~out ~verbose =
  let open Ibr_check in
  let cases = Scenarios.cases () in
  let selected =
    if target = "all" then cases
    else
      match Scenarios.find target with
      | Some c -> [ c ]
      | None ->
        failwith
          (Printf.sprintf "unknown scenario %S; known:\n  %s" target
             (String.concat "\n  "
                (List.map
                   (fun (c : Scenarios.case) -> c.scenario.Scenario.name)
                   cases)))
  in
  (match out with
   | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
   | _ -> ());
  let mismatches = ref 0 in
  List.iter
    (fun (c : Scenarios.case) ->
       let name = c.scenario.Scenario.name in
       let bound = Option.value bound ~default:c.bound in
       let outcome = Check.check ~bound ~budget c.scenario in
       Fmt.pr "%-32s %a@." name Check.pp_verdict outcome.verdict;
       (match outcome.minimal with
        | None -> ()
        | Some (tr, stats) ->
          Fmt.pr "  minimal witness: %d switches, %d steps (%d shrink replays)@."
            (Trace.switches tr) (Trace.total_steps tr) stats.Shrink.replays;
          if verbose then Fmt.pr "%a" Trace.pp tr;
          (match out with
           | None -> ()
           | Some dir ->
             let path = Filename.concat dir (trace_filename name) in
             Trace.to_file path tr;
             Fmt.pr "  witness written to %s@." path));
       let ok =
         match outcome.verdict, c.expect with
         | Check.Certified _, Scenarios.Safe
         | Check.Witness _, Scenarios.Faulty -> true
         | _ -> false
       in
       if not ok then begin
         incr mismatches;
         Fmt.pr "  EXPECTATION MISMATCH: expected %s@."
           (match c.expect with
            | Scenarios.Safe -> "no fault (certification)"
            | Scenarios.Faulty -> "a fault witness")
       end)
    selected;
  if !mismatches > 0 then begin
    Fmt.epr "%d expectation mismatch(es)@." !mismatches;
    exit 1
  end

(* Deterministically replay a checked-in trace file and report whether
   the recorded fault reproduces. *)
let run_replay ~path =
  let open Ibr_check in
  match Trace.of_file path with
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
  | Ok tr ->
    (match Scenarios.find tr.Trace.scenario with
     | None ->
       failwith (Printf.sprintf "%s: unknown scenario %S" path tr.Trace.scenario)
     | Some c ->
       let result = Engine.replay c.scenario tr in
       (match result.Engine.failure with
        | Some f ->
          Fmt.pr "%s: reproduced: %s (%d dispatches, %d preemptions)@."
            path f result.Engine.dispatches result.Engine.preemptions
        | None ->
          Fmt.epr "%s: trace did NOT reproduce a fault@." path;
          exit 1))

let list_menu () =
  Fmt.pr "rideables:            (capabilities: map, queue, range, bulk)@.";
  List.iter
    (fun (m : Ibr_ds.Ds_registry.maker) ->
       Fmt.pr "  %-20s %s@." m.ds_name
         (Ibr_ds.Ds_intf.caps_to_string m.caps))
    Ibr_ds.Ds_registry.all;
  Fmt.pr "mixes:@.";
  List.iter
    (fun mix ->
       let need = Ibr_harness.Workload.required mix in
       Fmt.pr "  %-20s needs %-15s (%s)@."
         (Ibr_harness.Workload.mix_name mix)
         (Ibr_ds.Ds_intf.caps_to_string need)
         (String.concat ", "
            (List.map
               (fun (m : Ibr_ds.Ds_registry.maker) -> m.ds_name)
               (Ibr_ds.Ds_registry.supporting need))))
    Ibr_harness.Workload.profiles;
  Fmt.pr "trackers:@.";
  List.iter
    (fun (e : Ibr_core.Registry.entry) ->
       let p = Ibr_core.Registry.props e in
       Fmt.pr "  %-12s %s@." e.name p.summary)
    Ibr_core.Registry.all

(* ---- cmdliner wiring ---- *)

let rideable =
  Arg.(value & opt string "hashmap"
       & info [ "r"; "rideable" ] ~docv:"NAME"
           ~doc:"Data structure: list, hashmap, rhashmap, nmtree,                  bonsai, stack, msqueue (see --menu for capabilities).")

let tracker =
  Arg.(value & opt string "2GEIBR"
       & info [ "d"; "tracker" ] ~docv:"NAME"
           ~doc:"Reclamation scheme (see --menu).")

let threads =
  Arg.(value & opt int 16
       & info [ "t"; "threads" ] ~docv:"N" ~doc:"Worker thread count.")

let interval =
  Arg.(value & opt int 200_000
       & info [ "i"; "interval" ] ~docv:"N"
           ~doc:"Run length: virtual cycles (sim) or microseconds                  (domains); 1 cycle ~ 1 us, so the same -i is comparable                  on either backend.")

let mix =
  Arg.(value & opt string "write"
       & info [ "m"; "mix" ] ~docv:"MIX"
           ~doc:"Workload mix: write (50/50 ins/rm), read (90% gets),                  or a YCSB-like profile A-F (A update-heavy, B                  read-mostly, C read-only, D queue churn, E scan-heavy,                  F migration; see --menu for capability needs).")

let faults =
  Arg.(value & opt string "none"
       & info [ "f"; "faults" ] ~docv:"PROFILE"
           ~doc:"Fault profile: none, stall-storm, crash, crash+capped,                  crash+watchdog, stall+watchdog, or stall+neutralize                  (stall storm plus a neutralizing watchdog: stalled                  workers get a restart signal and recover instead of                  being ejected).  The domains backend honors none,                  stall-storm, stall+watchdog and stall+neutralize; crash                  profiles need the simulator and fail fast otherwise.")

let cores =
  Arg.(value & opt int 72
       & info [ "cores" ] ~docv:"N" ~doc:"Simulated hardware threads.")

let background_reclaim =
  Arg.(value & flag
       & info [ "background-reclaim" ]
           ~doc:"Take reclamation off the critical path: retire appends \
                 to a per-thread handoff queue drained by a dedicated \
                 reclaimer (a fiber on sim, a domain on domains).")

let seed =
  Arg.(value & opt int 0xbeef & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let backend =
  Arg.(value & opt string "sim"
       & info [ "backend" ] ~docv:"B"
           ~doc:"Execution backend: sim (discrete-event) or domains (real).")

let empty_freq =
  Arg.(value & opt (some int) None
       & info [ "empty-freq" ] ~docv:"K"
           ~doc:"Reclamation attempt every K retirements (paper: 30).")

let epoch_freq =
  Arg.(value & opt (some int) None
       & info [ "epoch-freq" ] ~docv:"K"
           ~doc:"Epoch advance every K*threads allocations per thread.")

let key_range =
  Arg.(value & opt (some int) None
       & info [ "key-range" ] ~docv:"N" ~doc:"Override the key range.")

let output =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Append a CSV row to FILE.")

let menu =
  Arg.(value & flag
       & info [ "menu" ] ~doc:"List available rideables and trackers.")

let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Chatty output.")

let check =
  Arg.(value & opt (some string) None
       & info [ "check" ] ~docv:"SCENARIO|all"
           ~doc:"Model-check a scenario (or the whole suite) by bounded                  systematic schedule exploration instead of benchmarking.")

let check_bound =
  Arg.(value & opt (some int) None
       & info [ "check-bound" ] ~docv:"N"
           ~doc:"Preemption bound for --check (default: per-scenario).")

let check_budget =
  Arg.(value & opt int 50_000
       & info [ "check-budget" ] ~docv:"N"
           ~doc:"Schedule budget for --check (default 50000).")

let check_out =
  Arg.(value & opt (some string) None
       & info [ "check-out" ] ~docv:"DIR"
           ~doc:"Write minimized witness traces for --check into DIR.")

let check_replay =
  Arg.(value & opt (some string) None
       & info [ "check-replay" ] ~docv:"FILE"
           ~doc:"Replay a recorded schedule trace and verify the fault                  reproduces.")

let service =
  Arg.(value & flag
       & info [ "service" ]
           ~doc:"Run the open-loop service simulation instead of the \
                 closed-loop microbenchmark: arrivals on a Poisson or \
                 bursty schedule (diurnal ramp + spikes), Zipf-skewed \
                 keys, worker fibers joining and leaving the tracker \
                 census, SLO pass/fail verdicts (exit status 1 on \
                 FAIL).  -t sets the census capacity, -i the horizon; \
                 -m, --empty-freq, --epoch-freq and \
                 --background-reclaim apply as in closed-loop runs, \
                 and -f and --meta are refused.")

let service_fleet =
  Arg.(value & opt (some int) None
       & info [ "service-fleet" ] ~docv:"N"
           ~doc:"Worker fibers sharing the census slots (default \
                 threads + 2, so attach contention and slot reuse \
                 happen constantly).")

let service_period =
  Arg.(value & opt int 60
       & info [ "service-period" ] ~docv:"CYCLES"
           ~doc:"Base mean inter-arrival gap in virtual cycles.")

let service_arrival =
  Arg.(value & opt string "poisson"
       & info [ "service-arrival" ] ~docv:"PROCESS"
           ~doc:"Arrival process: poisson or bursty.")

let service_zipf =
  Arg.(value & opt float 0.9
       & info [ "service-zipf" ] ~docv:"THETA"
           ~doc:"Zipf hot-key skew exponent (0 = uniform).")

let service_watchdog =
  Arg.(value & flag
       & info [ "service-watchdog" ]
           ~doc:"Arm the census-aware ejection watchdog during the \
                 service run.")

let slo_p50 =
  Arg.(value & opt (some int) None
       & info [ "slo-p50" ] ~docv:"CYCLES"
           ~doc:"SLO target for p50 latency (virtual cycles).")

let slo_p99 =
  Arg.(value & opt (some int) None
       & info [ "slo-p99" ] ~docv:"CYCLES"
           ~doc:"SLO target for p99 latency (virtual cycles).")

let slo_p999 =
  Arg.(value & opt (some int) None
       & info [ "slo-p999" ] ~docv:"CYCLES"
           ~doc:"SLO target for p999 latency (virtual cycles).")

let slo_peak =
  Arg.(value & opt (some int) None
       & info [ "slo-peak" ] ~docv:"BLOCKS"
           ~doc:"SLO target for peak allocator footprint (blocks).")

let metas =
  Arg.(value & opt_all string []
       & info [ "meta" ] ~docv:"KEY:V1:V2:..."
           ~doc:(Printf.sprintf
                   "Cartesian sweep over %s; repeatable, parharness style."
                   Cli.meta_key_doc))

let trace =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a probe trace of the run(s) and write it as                  Chrome trace-event JSON (load in Perfetto or                  chrome://tracing).  Simulator closed-loop runs only:                  the domains backend raises Unsupported, and --service,                  --check and --check-replay refuse it.")

let hist =
  Arg.(value & flag
       & info [ "hist" ]
           ~doc:"Collect retire-age and per-primitive cost histograms;                  prints a summary and adds retire_age columns to the CSV                  row.  Simulator closed-loop runs only, as --trace.")

let cmd =
  let doc = "run one IBR microbenchmark configuration" in
  let term =
    Term.(
      const (fun menu_flag rideable tracker threads interval mix faults
              cores seed backend empty_freq epoch_freq key_range
              background_reclaim output verbose metas trace hist check
              check_bound check_budget check_out check_replay service
              service_fleet service_period service_arrival service_zipf
              service_watchdog slo_p50 slo_p99 slo_p999 slo_peak ->
          if menu_flag then list_menu ()
          else
            try
              (* Probes observe closed-loop runs only; refuse them up
                 front rather than drop them silently. *)
              (match check, check_replay, service with
               | Some _, _, _ | _, Some _, _ | _, _, true
                 when trace <> None || hist ->
                 failwith
                   "--trace and --hist record closed-loop runs only; \
                    they cannot be combined with --service, --check or \
                    --check-replay"
               | _ -> ());
              (* The service runs one fault-free configuration; a
                 flag it cannot honour is an error, not a no-op. *)
              if service
                 && (metas <> []
                     || Cli.parse_faults faults
                        <> Ibr_harness.Runner_intf.No_faults)
              then
                failwith
                  "--service runs one configuration without injected \
                   faults; it cannot be combined with -f or --meta";
              match check, check_replay with
              | Some target, _ ->
                run_check ~target ~bound:check_bound ~budget:check_budget
                  ~out:check_out ~verbose
              | None, Some path -> run_replay ~path
              | None, None when service ->
                run_service ~rideable ~tracker ~threads ~interval ~mix
                  ~cores ~seed ~backend
                  ~tweak:
                    (tweak ~threads ~empty_freq ~epoch_freq
                       ~background_reclaim)
                  ~fleet:service_fleet ~period:service_period
                  ~arrival:service_arrival ~zipf:service_zipf
                  ~watchdog:service_watchdog ~slo_p50 ~slo_p99 ~slo_p999
                  ~slo_peak ~key_range ~output ~verbose
              | None, None ->
                (* Observability switches.  Rings grow on demand, so
                   the thread hint only sizes the initial table. *)
                if trace <> None then
                  Ibr_obs.Probe.start ~threads:(threads + 2) ();
                if hist then Ibr_obs.Probe.enable_hist ();
                List.iter
                  (fun (base : Cli.base) ->
                     run_one ~base ~cores ~seed ~backend ~empty_freq
                       ~epoch_freq ~key_range ~background_reclaim ~output
                       ~verbose)
                  (Cli.expand_metas metas
                     { Cli.rideable; tracker; threads; interval; mix;
                       faults });
                if hist then Fmt.pr "%t" Ibr_obs.Trace_export.report_hist;
                (match trace with
                 | None -> ()
                 | Some path ->
                   Ibr_obs.Trace_export.write_file path;
                   (match Ibr_obs.Trace_export.validate_file path with
                    | Ok n -> Fmt.pr "trace: %d events -> %s@." n path
                    | Error msg ->
                      Fmt.epr "trace: INVALID (%s)@." msg;
                      Stdlib.exit 1))
            with
            | Failure msg | Invalid_argument msg ->
              Fmt.epr "error: %s@." msg;
              Stdlib.exit 1
            | Ibr_harness.Runner_intf.Unsupported _ as e ->
              Fmt.epr "error: %s@." (Printexc.to_string e);
              Stdlib.exit 1)
      $ menu $ rideable $ tracker $ threads $ interval $ mix $ faults
      $ cores $ seed $ backend $ empty_freq $ epoch_freq $ key_range
      $ background_reclaim $ output $ verbose $ metas $ trace $ hist $ check
      $ check_bound $ check_budget $ check_out $ check_replay $ service
      $ service_fleet $ service_period $ service_arrival $ service_zipf
      $ service_watchdog $ slo_p50 $ slo_p99 $ slo_p999 $ slo_peak)
  in
  Cmd.v (Cmd.info "ibr-bench" ~doc) term

let () = exit (Cmd.eval cmd)
