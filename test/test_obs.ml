(* The observability layer: the golden-file guard on the registry-
   derived CSV schema, the probe/metric reconciliation property, and
   the trace exporter + validator.

   Ordering matters within this suite: the golden test must run
   before anything calls [Probe.enable_hist], because enabling the
   histogram adds retire_age columns to the registry (by design — the
   --hist flag widens the CSV), and the golden fixture pins the
   default column set. *)

open Ibr_harness

(* ---- golden CSV ---------------------------------------------------- *)

(* The three fixture rows, regenerated with the exact configurations
   that produced test/golden/stats.csv (see the file header there);
   the comparison is byte-for-byte, so any drift in the registry
   column set, the column order, or the simulation itself fails. *)
let golden_run ~rideable ~tracker ~threads ~horizon ~seed ~faults =
  let spec = Workload.spec_for ~mix:Workload.write_dominated rideable in
  let cfg =
    Runner_sim.default_config ~threads ~horizon ~cores:8 ~seed
      ~faults:(Cli.parse_faults faults) ~spec ()
  in
  Option.get (Runner_sim.run_named ~tracker_name:tracker ~ds_name:rideable cfg)

let test_golden_csv () =
  let rows =
    [
      golden_run ~rideable:"hashmap" ~tracker:"2GEIBR" ~threads:4
        ~horizon:50_000 ~seed:42 ~faults:"none";
      golden_run ~rideable:"hashmap" ~tracker:"EBR" ~threads:4
        ~horizon:50_000 ~seed:42 ~faults:"none";
      golden_run ~rideable:"list" ~tracker:"HP" ~threads:3 ~horizon:40_000
        ~seed:7 ~faults:"crash";
    ]
  in
  let got =
    String.concat ""
      (List.map (fun line -> line ^ "\n")
         (Stats.csv_header () :: List.map Stats.to_csv_row rows))
  in
  let fixture =
    (* dune runtest stages the fixture next to the test binary; a bare
       `dune exec test/test_main.exe` runs from the project root. *)
    if Sys.file_exists "golden/stats.csv" then "golden/stats.csv"
    else "test/golden/stats.csv"
  in
  let ic = open_in fixture in
  let want = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "CSV byte-for-byte vs golden fixture" want got

(* ---- probe / stats reconciliation --------------------------------- *)

let traced_run ~seed =
  (* Capacity sized so nothing is dropped: the property needs the
     complete stream. *)
  Ibr_obs.Probe.start ~capacity:(1 lsl 17) ~threads:6 ();
  let spec = { (Workload.spec_for "hashmap") with key_range = 256 } in
  let cfg =
    Runner_sim.default_config ~threads:4 ~horizon:20_000 ~cores:4 ~seed
      ~spec ()
  in
  let r =
    Option.get
      (Runner_sim.run_named ~tracker_name:"2GEIBR" ~ds_name:"hashmap" cfg)
  in
  let per_thread = Ibr_obs.Probe.per_thread () in
  let events = Ibr_obs.Probe.events () in
  let dropped = Ibr_obs.Probe.dropped () in
  Ibr_obs.Probe.stop ();
  (r, per_thread, events, dropped)

(* Replay the event stream against the run's registry snapshot: every
   counted thing must be counted the same way twice — once by the
   probes, once by the subsystems' own bookkeeping. *)
let qcheck_trace_reconciles =
  QCheck.Test.make ~name:"traced sim run reconciles with Stats" ~count:3
    (QCheck.make QCheck.Gen.(int_range 0 10_000))
    (fun seed ->
       let r, per_thread, events, dropped = traced_run ~seed in
       if dropped <> 0 then
         QCheck.Test.fail_reportf "dropped %d records" dropped;
       (* Per-track timestamps are non-decreasing (oldest first). *)
       List.iter
         (fun (tid, arr) ->
            Array.iteri
              (fun i (rec_ : Ibr_obs.Probe.record) ->
                 if i > 0 && rec_.ts < arr.(i - 1).Ibr_obs.Probe.ts then
                   QCheck.Test.fail_reportf
                     "tid %d: ts %d after %d" tid rec_.ts
                     arr.(i - 1).Ibr_obs.Probe.ts)
              arr)
         per_thread;
       (* Event counts = subsystem counters.  The probes cover the
          structure's whole life (tracing starts before prefill), so
          they match the absolute allocator gauges. *)
       let count p = List.length (List.filter p events) in
       let allocs =
         count (fun e ->
           match e.Ibr_obs.Probe.ev with Alloc _ -> true | _ -> false)
       and reclaims =
         count (fun e ->
           match e.Ibr_obs.Probe.ev with Reclaim _ -> true | _ -> false)
       and scans =
         count (fun e ->
           match e.Ibr_obs.Probe.ev with
           | Sweep_end { phase = Scan; _ } -> true
           | _ -> false)
       and scan_begins =
         count (fun e ->
           match e.Ibr_obs.Probe.ev with
           | Sweep_begin { phase = Scan } -> true
           | _ -> false)
       and op_begins =
         count (fun e ->
           match e.Ibr_obs.Probe.ev with Op_begin -> true | _ -> false)
       and op_ends =
         count (fun e ->
           match e.Ibr_obs.Probe.ev with Op_end -> true | _ -> false)
       in
       let m = Stats.metric r in
       if allocs <> m "allocated" then
         QCheck.Test.fail_reportf "alloc events %d <> allocated %d" allocs
           (m "allocated");
       if reclaims <> m "freed" then
         QCheck.Test.fail_reportf "reclaim events %d <> freed %d" reclaims
           (m "freed");
       (* No prefill retires happen (pure inserts of fresh keys), so
          every Scan span falls inside the measured window.  The
          horizon stop can truncate one sweep per thread between its
          examination walk (which counts the sweep) and the span
          close (emitted after the free loop, whose frees are
          preemption points), so the counter is bracketed by the
          completed and the started spans rather than pinned. *)
       if not (scans <= m "sweeps" && m "sweeps" <= scan_begins) then
         QCheck.Test.fail_reportf
           "sweeps %d outside scan spans [completed %d, started %d]"
           (m "sweeps") scans scan_begins;
       (* [Ds_common.with_op] closes its span on both the value and
          the unwind path, so spans balance even across the horizon. *)
       if op_begins <> op_ends then
         QCheck.Test.fail_reportf "op spans unbalanced: %d begins, %d ends"
           op_begins op_ends;
       (* Every published reclaim closes an open retire: the
          Retired -> Reclaimed transition, replayed block by block.
          (Unpublished reclaims are speculative nodes that were never
          retired.) *)
       let open_retires = Hashtbl.create 256 in
       List.iter
         (fun (e : Ibr_obs.Probe.record) ->
            match e.ev with
            | Retire { block } ->
              if Hashtbl.mem open_retires block then
                QCheck.Test.fail_reportf "block %d retired twice" block;
              Hashtbl.replace open_retires block ()
            | Reclaim { block; unpublished = false } ->
              if not (Hashtbl.mem open_retires block) then
                QCheck.Test.fail_reportf
                  "block %d reclaimed without a prior retire" block;
              Hashtbl.remove open_retires block
            | _ -> ())
         events;
       true)

(* Tracing must not perturb the simulation: the virtual-time results
   of a traced and an untraced run of the same seed are identical. *)
let test_trace_is_free () =
  let go ~traced =
    if traced then Ibr_obs.Probe.start ~capacity:4096 ~threads:6 ();
    let spec = { (Workload.spec_for "list") with key_range = 64 } in
    let cfg =
      Runner_sim.default_config ~threads:3 ~horizon:15_000 ~cores:2
        ~seed:99 ~spec ()
    in
    let r =
      Option.get
        (Runner_sim.run_named ~tracker_name:"EBR" ~ds_name:"list" cfg)
    in
    if traced then Ibr_obs.Probe.stop ();
    r
  in
  let off = go ~traced:false and on = go ~traced:true in
  Alcotest.(check int) "same ops" off.ops on.ops;
  Alcotest.(check int) "same makespan" off.makespan on.makespan;
  Alcotest.(check (float 0.0)) "same unreclaimed" off.avg_unreclaimed
    on.avg_unreclaimed

(* ---- trace export + validator ------------------------------------- *)

let test_trace_export_validates () =
  let _, _, _, _ = traced_run ~seed:5 in
  (* traced_run stopped the probe; restart, rerun, keep it live for
     the export. *)
  Ibr_obs.Probe.start ~capacity:(1 lsl 16) ~threads:6 ();
  let spec = { (Workload.spec_for "hashmap") with key_range = 128 } in
  let cfg =
    Runner_sim.default_config ~threads:3 ~horizon:10_000 ~cores:2 ~seed:11
      ~spec ()
  in
  ignore
    (Option.get
       (Runner_sim.run_named ~tracker_name:"2GEIBR" ~ds_name:"hashmap" cfg));
  let path = Filename.temp_file "ibr_trace" ".json" in
  Ibr_obs.Trace_export.write_file path;
  Ibr_obs.Probe.stop ();
  (match Ibr_obs.Trace_export.validate_file path with
   | Ok n -> Alcotest.(check bool) "events validated" true (n > 0)
   | Error msg -> Alcotest.fail ("trace invalid: " ^ msg));
  Sys.remove path

let test_validator_rejects_garbage () =
  let reject s what =
    match Ibr_obs.Trace_export.validate s with
    | Ok _ -> Alcotest.fail ("validator accepted " ^ what)
    | Error _ -> ()
  in
  reject "not json" "non-JSON";
  reject "{\"traceEvents\":42}" "non-array traceEvents";
  reject "{\"other\":[]}" "missing traceEvents";
  reject
    "{\"traceEvents\":[{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":5},\
     {\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":3}]}"
    "non-monotone timestamps";
  match
    Ibr_obs.Trace_export.validate
      "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"i\",\"pid\":1,\
       \"tid\":0,\"ts\":1}]}"
  with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "expected 1 event, validator saw %d" n
  | Error msg -> Alcotest.fail ("minimal trace rejected: " ^ msg)

let test_json_parser () =
  let open Ibr_obs.Json in
  (match parse "  {\"a\": [1, -2.5, true, null, \"s\\n\"]} " with
   | Error e -> Alcotest.fail e
   | Ok v ->
     (match member "a" v with
      | Some (Arr [ Num 1.0; Num -2.5; Bool true; Null; Str "s\n" ]) -> ()
      | _ -> Alcotest.fail "parse shape"));
  (match parse "[1,]" with
   | Ok _ -> Alcotest.fail "trailing comma accepted"
   | Error _ -> ());
  match parse "{\"a\":1" with
  | Ok _ -> Alcotest.fail "unterminated object accepted"
  | Error _ -> ()

(* ---- registry + histograms (column-widening: keep these last) ----- *)

let test_registry_gauges () =
  let baseline = Ibr_obs.Metrics.begin_run () in
  Ibr_core.Epoch.publish 42;
  let snap = Ibr_obs.Metrics.collect baseline in
  Alcotest.(check int) "published gauge" 42
    (Ibr_obs.Metrics.get snap "epoch");
  Alcotest.(check int) "zero row" 0
    (Ibr_obs.Metrics.get (Ibr_obs.Metrics.zero ()) "epoch");
  Alcotest.(check int) "unknown column defaults to 0" 0
    (Ibr_obs.Metrics.get snap "no_such_metric");
  (* Column order follows the explicit order keys, not link order. *)
  let cols = Ibr_obs.Metrics.columns () in
  let pos name =
    let rec go i = function
      | [] -> Alcotest.failf "column %s missing" name
      | c :: _ when c = name -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 cols
  in
  Alcotest.(check bool) "allocated before epoch" true
    (pos "allocated" < pos "epoch");
  Alcotest.(check bool) "epoch before sweeps" true
    (pos "epoch" < pos "sweeps");
  Alcotest.(check bool) "sweeps before peak_footprint" true
    (pos "sweeps" < pos "peak_footprint")

let test_hist_summary () =
  Ibr_obs.Probe.enable_hist ();
  let h = Option.get (Ibr_obs.Probe.age_hist ()) in
  let baseline = Ibr_obs.Metrics.begin_run () in
  for i = 1 to 100 do
    Ibr_obs.Metrics.observe h i
  done;
  let n, p50, p90, p99, mx = Ibr_obs.Metrics.summary h in
  Alcotest.(check int) "n" 100 n;
  Alcotest.(check int) "p50" 51 p50;
  Alcotest.(check int) "p90" 91 p90;
  Alcotest.(check int) "p99" 100 p99;
  Alcotest.(check int) "max" 100 mx;
  (* The histogram's four derived columns land in the snapshot. *)
  let snap = Ibr_obs.Metrics.collect baseline in
  Alcotest.(check int) "retire_age_p50 column" 51
    (Ibr_obs.Metrics.get snap "retire_age_p50");
  Alcotest.(check int) "retire_age_max column" 100
    (Ibr_obs.Metrics.get snap "retire_age_max");
  (* begin_run clears it. *)
  ignore (Ibr_obs.Metrics.begin_run ());
  let n, _, _, _, _ = Ibr_obs.Metrics.summary h in
  Alcotest.(check int) "cleared by begin_run" 0 n;
  Ibr_obs.Probe.stop ()

let suite =
  [
    Alcotest.test_case "golden CSV is byte-for-byte stable" `Slow
      test_golden_csv;
    QCheck_alcotest.to_alcotest qcheck_trace_reconciles;
    Alcotest.test_case "tracing leaves virtual time untouched" `Quick
      test_trace_is_free;
    Alcotest.test_case "trace export passes the validator" `Quick
      test_trace_export_validates;
    Alcotest.test_case "validator rejects malformed traces" `Quick
      test_validator_rejects_garbage;
    Alcotest.test_case "json parser round-trips" `Quick test_json_parser;
    Alcotest.test_case "registry gauges and ordering" `Quick
      test_registry_gauges;
    Alcotest.test_case "histogram summary and columns" `Quick
      test_hist_summary;
  ]
