(* The campaign front end:

     bench/main.exe [--out DIR] [CAMPAIGN ...]

   runs the named campaigns (every one if none is named) in a fixed
   order, prints their tables and PASS/FAIL claims, writes their CSV
   and JSON files under DIR, and exits 1 if any claim fails.  The
   library campaigns (figures, ablations, robustness, service, BENCH_6)
   live in Ibr_harness.Campaign; the two that need Bechamel live here:

   - native: the native wall-clock cost of data-structure operations
     under each reclamation scheme (the single-thread
     instruction-overhead component of Fig. 8), plus ablation kernels,
     with the cost-model hooks inactive;
   - trace-overhead: tracing must leave a virtual-time run
     bit-identical, and what it costs natively. *)

open Bechamel
open Toolkit
module C = Ibr_harness.Campaign

let ops_per_run = 64

(* A native workload kernel: [ops_per_run] mixed operations against a
   prefilled structure.  The structure persists across runs; the
   balanced mix keeps its size stationary. *)
let make_kernel (module S : Ibr_ds.Ds_intf.RIDEABLE) =
  let m = Option.get S.map in
  let threads = 1 in
  let cfg = Ibr_core.Tracker_intf.default_config ~threads () in
  let t = S.create ~threads cfg in
  let h = S.register t ~tid:0 in
  let key_range = 1024 in
  let rng = Ibr_runtime.Rng.create 0xdead in
  for k = 0 to key_range - 1 do
    if k mod 4 <> 3 then ignore (m.insert h ~key:k ~value:k)
  done;
  Staged.stage (fun () ->
    for _ = 1 to ops_per_run do
      let k = Ibr_runtime.Rng.int rng key_range in
      match Ibr_runtime.Rng.int rng 3 with
      | 0 -> ignore (m.insert h ~key:k ~value:k)
      | 1 -> ignore (m.remove h ~key:k)
      | _ -> ignore (m.contains h ~key:k)
    done)

let figure_tests fig_id ds_name =
  let maker = Ibr_ds.Ds_registry.find_exn ds_name in
  List.filter_map
    (fun (e : Ibr_core.Registry.entry) ->
       if Ibr_ds.Ds_registry.compatible maker e.tracker then
         Some
           (Test.make
              ~name:(Printf.sprintf "%s:%s:%s" fig_id ds_name e.name)
              (make_kernel (maker.instantiate e.tracker)))
       else None)
    Ibr_core.Registry.paper_set

(* Ablation: empty_freq (k) native cost. *)
let ksweep_tests () =
  List.map
    (fun k ->
       let maker = Ibr_ds.Ds_registry.find_exn "hashmap" in
       let tracker = (Ibr_core.Registry.find_exn "2GEIBR").tracker in
       let (module S : Ibr_ds.Ds_intf.RIDEABLE) = maker.instantiate tracker
       in
       let m = Option.get S.map in
       let kernel =
         let threads = 1 in
         let cfg =
           { (Ibr_core.Tracker_intf.default_config ~threads ()) with
             empty_freq = k } in
         let t = S.create ~threads cfg in
         let h = S.register t ~tid:0 in
         let rng = Ibr_runtime.Rng.create 3 in
         for key = 0 to 1023 do
           ignore (m.insert h ~key ~value:key)
         done;
         Staged.stage (fun () ->
           for _ = 1 to ops_per_run do
             let key = Ibr_runtime.Rng.int rng 1024 in
             if Ibr_runtime.Rng.bool rng then
               ignore (m.insert h ~key ~value:key)
             else ignore (m.remove h ~key)
           done)
       in
       Test.make ~name:(Printf.sprintf "ablation:empty-freq:k=%d" k) kernel)
    [ 1; 10; 30; 50 ]

(* Ablation: old-vs-new sweep cost.  One kernel = one full sweep over
   [sweep_block_count] retired blocks (snapshot build + per-block
   conflict test), so the printed ns/op is the amortized per-block
   sweep cost.  The retired list is sized for the oversubscribed
   regime the fix targets — Fig. 9 pins ~250 blocks per sweep there.
   The linear predicate rescans the reservation table per block
   (O(threads) each); the sorted snapshot pays one O(T log T) build
   then O(log T) per block — per-block cost stays near-flat in the
   thread count (the residue is the build amortized over the list),
   which is the point of the tentpole change. *)
let sweep_block_count = 256

let sweep_ablation_tests () =
  let module TC = Ibr_core.Tracker_common in
  let block_count = sweep_block_count in
  let epoch_range = 10_000 in
  let make_blocks rng =
    Array.init block_count (fun id ->
      let b = Ibr_core.Block.make ~id id in
      let birth = 1 + Ibr_runtime.Rng.int rng epoch_range in
      Ibr_core.Block.set_birth_epoch b birth;
      Ibr_core.Block.set_retire_epoch b (birth + Ibr_runtime.Rng.int rng 64);
      b)
  in
  List.concat_map
    (fun threads ->
       let rng = Ibr_runtime.Rng.create (0x5eeb + threads) in
       (* Interval reservations (TagIBR/2GEIBR family): ~3/4 of the
          threads hold a reservation at sweep time. *)
       let res = TC.Interval_res.create threads in
       for tid = 0 to threads - 1 do
         if Ibr_runtime.Rng.int rng 4 < 3 then begin
           let lo = 1 + Ibr_runtime.Rng.int rng epoch_range in
           Atomic.set res.TC.Interval_res.lower.(tid) lo;
           Atomic.set res.TC.Interval_res.upper.(tid)
             (lo + Ibr_runtime.Rng.int rng 128)
         end
       done;
       (* Era reservations (HE): same density, one era per slot. *)
       let eras =
         Array.init (threads * 4) (fun _ ->
           if Ibr_runtime.Rng.int rng 4 < 3 then
             1 + Ibr_runtime.Rng.int rng epoch_range
           else 0)
       in
       let blocks = make_blocks rng in
       let sweep_with conflict =
         let kept = ref 0 in
         Array.iter (fun b -> if conflict b then incr kept) blocks;
         !kept
       in
       let interval kind mk =
         Test.make
           ~name:(Printf.sprintf "ablation:sweep:interval:%s:t=%d" kind
                    threads)
           (Staged.stage (fun () -> ignore (sweep_with (mk ()))))
       and era kind mk =
         Test.make
           ~name:(Printf.sprintf "ablation:sweep:era:%s:t=%d" kind threads)
           (Staged.stage (fun () -> ignore (sweep_with (mk ()))))
       in
       [ interval "linear" (fun () ->
             TC.Interval_res.conflict_with_snapshot res);
         interval "sorted" (fun () ->
             Ibr_core.Reclaimer.(
               survives (intervals (TC.Interval_res.sweep_snapshot res))));
         era "linear" (fun () ->
             let reserved =
               Array.to_list eras |> List.filter (fun e -> e <> 0) in
             fun b ->
               List.exists
                 (fun e ->
                    Ibr_core.Block.birth_epoch b <= e
                    && e <= Ibr_core.Block.retire_epoch b)
                 reserved);
         era "sorted" (fun () ->
             Ibr_core.Reclaimer.(
               survives
                 (intervals (TC.Sweep_snapshot.of_points ~none:0 eras)))) ])
    [ 8; 72; 100 ]

(* Bechamel OLS estimate of ns per run for each test, by name. *)
let measure tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) ~stabilize:false () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  Hashtbl.fold
    (fun name r acc ->
       (name,
        match Analyze.OLS.estimates r with Some [ e ] -> Some e | _ -> None)
       :: acc)
    (Analyze.all ols Instance.monotonic_clock raw) []
  |> List.sort compare

let native () =
  let rows =
    measure
      (Test.make_grouped ~name:"ibr"
         (figure_tests "fig8a" "list"
          @ figure_tests "fig8b" "hashmap"
          @ figure_tests "fig8c" "nmtree"
          @ figure_tests "fig8d" "bonsai"
          @ ksweep_tests ()
          @ sweep_ablation_tests ()))
  in
  (* Sweep-ablation kernels iterate over the retired list, not
     [ops_per_run] operations, so they normalize by the list size. *)
  let per_op name est =
    est
    /. float_of_int
         (if String.starts_with ~prefix:"ibr/ablation:sweep" name then
            sweep_block_count
          else ops_per_run)
  in
  { C.text =
      "== native per-op cost (Bechamel, monotonic clock) ==\n"
      ^ C.table
          [ ("benchmark", -32, fst);
            ("ns/op", 14,
             fun (name, est) ->
               match est with
               | Some e -> Printf.sprintf "%.1f" (per_op name e)
               | None -> "-") ]
          rows
      ^ "\n";
    claims = [];
    files = [] }

(* The probes never call [Hooks.step], so a traced sim run must be
   identical to an untraced one, checked exactly.  Natively, the same
   kernel is timed with probes disabled (the shipping path: one load
   and branch per emitter) and with tracing and histograms on. *)
let trace_overhead () =
  let sim_run () =
    Option.get
      (C.run
         (C.point
            ~spec:
              { (Ibr_harness.Workload.spec_for "hashmap") with
                key_range = 512 }
            ~cores:8 ~seed:0x7ace ~threads:8 ~horizon:60_000 "2GEIBR"
            "hashmap"))
  in
  let off = sim_run () in
  Ibr_obs.Probe.start ~threads:10 ();
  Ibr_obs.Probe.enable_hist ();
  let on = sim_run () in
  Ibr_obs.Probe.stop ();
  let ns label =
    let kernel =
      make_kernel
        ((Ibr_ds.Ds_registry.find_exn "hashmap").instantiate
           (Ibr_core.Registry.find_exn "2GEIBR").tracker)
    in
    match measure (Test.make ~name:label kernel) with
    | [ (_, Some e) ] -> e /. float_of_int ops_per_run
    | _ -> nan
  in
  let ns_off = ns "trace:off" in
  Ibr_obs.Probe.start ~threads:2 ();
  Ibr_obs.Probe.enable_hist ();
  let ns_on = ns "trace:on" in
  Ibr_obs.Probe.stop ();
  let open Ibr_harness.Stats in
  { C.text =
      Printf.sprintf
        "== ablation:trace-overhead ==\n\
         virtual: untraced ops=%d makespan=%d | traced ops=%d makespan=%d\n\
         native:  probes disabled %.1f ns/op | tracing+hist enabled %.1f \
         ns/op (%+.1f%%)\n"
        off.ops off.makespan on.ops on.makespan ns_off ns_on
        ((ns_on -. ns_off) /. ns_off *. 100.0);
    claims =
      [ { C.claim = "tracing leaves the virtual-time run bit-identical";
          holds =
            off.ops = on.ops && off.makespan = on.makespan
            && off.throughput = on.throughput;
          detail = "" } ];
    files = [] }

let () =
  exit
    (C.main
       (C.all
        @ [ { C.name = "native"; run = native };
            { C.name = "trace-overhead"; run = trace_overhead } ])
       (List.tl (Array.to_list Sys.argv)))
