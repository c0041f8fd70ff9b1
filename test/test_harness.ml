(* Harness components: workload generation, stats arithmetic, CSV,
   chart rendering, campaign wiring, and the simulator runner. *)

open Ibr_harness

let test_mix_rates () =
  let rng = Ibr_runtime.Rng.create 5 in
  let count mix n =
    let ins = ref 0 and rem = ref 0 and get = ref 0 and other = ref 0 in
    ignore other;
    for _ = 1 to n do
      match Workload.pick_op rng mix with
      | Workload.Insert -> incr ins
      | Workload.Remove -> incr rem
      | Workload.Get -> incr get
      | Workload.Scan | Workload.Enqueue | Workload.Dequeue
      | Workload.Migrate -> incr other
    done;
    (!ins, !rem, !get)
  in
  let ins, rem, get = count Workload.write_dominated 10_000 in
  Alcotest.(check bool) "write-dominated ~50/50/0" true
    (abs (ins - 5000) < 300 && abs (rem - 5000) < 300 && get = 0);
  let ins, rem, get = count Workload.read_dominated 10_000 in
  Alcotest.(check bool) "read-dominated ~5/5/90" true
    (abs (ins - 500) < 150 && abs (rem - 500) < 150 && abs (get - 9000) < 300)

let test_mix_names () =
  Alcotest.(check string) "write name" "write-dominated"
    (Workload.mix_name Workload.write_dominated);
  Alcotest.(check string) "read name" "read-dominated"
    (Workload.mix_name Workload.read_dominated)

let test_prefill_fraction () =
  let rng = Ibr_runtime.Rng.create 7 in
  let spec = { Workload.key_range = 10_000; prefill_fraction = 0.75;
               mix = Workload.write_dominated } in
  let n = ref 0 in
  Workload.prefill ~rng ~spec ~insert:(fun ~key:_ ~value:_ -> incr n; true);
  Alcotest.(check bool) "~75% of keys" true (abs (!n - 7500) < 300)

let test_key_in_range () =
  let rng = Ibr_runtime.Rng.create 9 in
  let spec = Workload.spec_for "list" in
  for _ = 1 to 1000 do
    let k = Workload.pick_key rng spec in
    Alcotest.(check bool) "key in range" true (k >= 0 && k < spec.key_range)
  done

let test_throughput_math () =
  Alcotest.(check (float 0.001)) "1000 ops / 1M cycles" 1000.0
    (Stats.throughput ~ops:1000 ~makespan:1_000_000);
  Alcotest.(check (float 0.001)) "zero makespan" 0.0
    (Stats.throughput ~ops:10 ~makespan:0)

let test_sampler () =
  let s = Stats.make_sampler () in
  List.iter (Stats.sample s) [ 1; 2; 3; 10 ];
  Alcotest.(check (float 0.001)) "mean" 4.0 (Stats.mean s);
  Alcotest.(check int) "peak" 10 s.peak;
  let merged = Stats.merge_samplers [ s; s ] in
  Alcotest.(check int) "merged n" 8 merged.n;
  Alcotest.(check (float 0.001)) "merged mean" 4.0 (Stats.mean merged);
  (* The sum is an exact int.  Near 2^40 its mean is still exact, and
     bit-identical to the running float sum the sampler used to keep:
     a float sum of ints is exact below 2^53. *)
  let base = 1 lsl 40 in
  let vs = [ base + 1; base + 2; base + 3; base + 6; base - 7 ] in
  let big = Stats.make_sampler () in
  List.iter (Stats.sample big) vs;
  Alcotest.(check int) "exact sum" ((5 * base) + 5) big.sum;
  Alcotest.(check int) "peak" (base + 6) big.peak;
  let float_sum = List.fold_left (fun a v -> a +. float_of_int v) 0.0 vs in
  Alcotest.(check bool) "mean = float running sum / n" true
    (Stats.mean big = float_sum /. 5.0);
  Alcotest.(check bool) "mean exact" true
    (Stats.mean big = float_of_int (base + 1));
  let merged = Stats.merge_samplers [ big; big; s ] in
  Alcotest.(check int) "merged exact sum" ((10 * base) + 10 + 16) merged.sum;
  Alcotest.(check bool) "merged mean = float running sum / n" true
    (Stats.mean merged = ((float_sum +. float_sum) +. 16.0) /. 14.0)

let test_csv_row_shape () =
  let row = {
    Stats.tracker = "EBR"; ds = "list"; threads = 4; mix = "write-dominated";
    backend = "sim";
    ops = 100; makespan = 1000; throughput = 1.5; avg_unreclaimed = 2.25;
    peak_unreclaimed = 7; samples = 100;
    metrics = Ibr_obs.Metrics.zero ();
  } in
  let cells = String.split_on_char ',' (Stats.to_csv_row row) in
  let headers = String.split_on_char ',' (Stats.csv_header ()) in
  Alcotest.(check int) "row matches header width" (List.length headers)
    (List.length cells);
  Alcotest.(check string) "first cell" "EBR" (List.hd cells)

let test_chart_render () =
  let fig = {
    Chart.fig_id = "t"; title = "test"; ylabel = "y";
    series =
      [ { Chart.label = "a"; points = [ (1, 1.0); (2, 4.0) ] };
        { Chart.label = "b"; points = [ (1, 2.0) ] } ];
  } in
  let s = Chart.to_string fig in
  Alcotest.(check bool) "contains labels" true
    (Astring_contains.contains s "a" && Astring_contains.contains s "threads")

let test_experiment_lineup () =
  let names lineup = List.map (fun (e : Ibr_core.Registry.entry) -> e.name) lineup in
  let bonsai = names (Campaign.lineup "bonsai") in
  Alcotest.(check bool) "bonsai excludes HP" true (not (List.mem "HP" bonsai));
  Alcotest.(check bool) "bonsai excludes HE" true (not (List.mem "HE" bonsai));
  Alcotest.(check bool) "bonsai includes POIBR" true (List.mem "POIBR" bonsai);
  let list_lineup = names (Campaign.lineup "list") in
  Alcotest.(check bool) "list excludes POIBR" true
    (not (List.mem "POIBR" list_lineup));
  Alcotest.(check bool) "list includes HP" true (List.mem "HP" list_lineup)

let test_runner_sim_basic () =
  let spec = { (Workload.spec_for "hashmap") with key_range = 256 } in
  let cfg =
    Runner_sim.default_config ~threads:4 ~horizon:20_000 ~cores:4 ~spec () in
  match Runner_sim.run_named ~tracker_name:"EBR" ~ds_name:"hashmap" cfg with
  | None -> Alcotest.fail "EBR/hashmap should be compatible"
  | Some r ->
    Alcotest.(check bool) "did ops" true (r.ops > 100);
    Alcotest.(check bool) "throughput positive" true (r.throughput > 0.0);
    Alcotest.(check bool) "no faults" true (Stats.metric r "faults" = 0);
    Alcotest.(check string) "tracker name" "EBR" r.tracker;
    Alcotest.(check int) "threads recorded" 4 r.threads

let test_runner_sim_deterministic () =
  let spec = { (Workload.spec_for "list") with key_range = 32 } in
  let go () =
    let cfg =
      Runner_sim.default_config ~threads:3 ~horizon:15_000 ~cores:2
        ~seed:77 ~spec () in
    Option.get (Runner_sim.run_named ~tracker_name:"2GEIBR" ~ds_name:"list" cfg)
  in
  let a = go () and b = go () in
  Alcotest.(check int) "same ops" a.ops b.ops;
  Alcotest.(check int) "same makespan" a.makespan b.makespan;
  Alcotest.(check (float 0.0001)) "same unreclaimed" a.avg_unreclaimed
    b.avg_unreclaimed

let test_runner_sim_incompatible_pair () =
  let spec = Workload.spec_for "list" in
  let cfg = Runner_sim.default_config ~threads:2 ~horizon:5_000 ~spec () in
  Alcotest.(check bool) "POIBR/list rejected" true
    (Runner_sim.run_named ~tracker_name:"POIBR" ~ds_name:"list" cfg = None)

let test_fig7_table_text () =
  let s = Campaign.fig7_table () in
  List.iter
    (fun name ->
       Alcotest.(check bool) (name ^ " in fig7") true
         (Astring_contains.contains s name))
    [ "EBR"; "HP"; "HE"; "POIBR"; "TagIBR"; "2GEIBR" ]

let suite =
  [
    Alcotest.test_case "mix rates" `Quick test_mix_rates;
    Alcotest.test_case "mix names" `Quick test_mix_names;
    Alcotest.test_case "prefill fraction" `Quick test_prefill_fraction;
    Alcotest.test_case "key range" `Quick test_key_in_range;
    Alcotest.test_case "throughput math" `Quick test_throughput_math;
    Alcotest.test_case "sampler" `Quick test_sampler;
    Alcotest.test_case "csv row shape" `Quick test_csv_row_shape;
    Alcotest.test_case "chart render" `Quick test_chart_render;
    Alcotest.test_case "experiment lineup" `Quick test_experiment_lineup;
    Alcotest.test_case "runner_sim basic" `Quick test_runner_sim_basic;
    Alcotest.test_case "runner_sim deterministic" `Quick
      test_runner_sim_deterministic;
    Alcotest.test_case "incompatible pair rejected" `Quick
      test_runner_sim_incompatible_pair;
    Alcotest.test_case "fig7 table" `Quick test_fig7_table_text;
  ]
