(* Regenerate test/golden/stats.csv.

   Runs the exact three fixture configurations of
   test/test_obs.ml:test_golden_csv (keep the two in lockstep!) and
   rewrites the fixture.  Use after an intentional change to the
   registry column set or to simulated virtual time; the test then
   pins the new bytes.

     dune exec tools/regen_golden.exe -- test/golden/stats.csv
*)

open Ibr_harness

let golden_run ~rideable ~tracker ~threads ~horizon ~seed ~faults =
  let spec = Workload.spec_for ~mix:Workload.write_dominated rideable in
  let cfg =
    Runner_sim.default_config ~threads ~horizon ~cores:8 ~seed
      ~faults:(Cli.parse_faults faults) ~spec ()
  in
  Option.get (Runner_sim.run_named ~tracker_name:tracker ~ds_name:rideable cfg)

let () =
  let path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden/stats.csv"
  in
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
  let oc = open_out path in
  output_string oc (Stats.csv_header ());
  output_char oc '\n';
  List.iter
    (fun r ->
       output_string oc (Stats.to_csv_row r);
       output_char oc '\n')
    rows;
  close_out oc;
  Printf.printf "wrote %s\n" path
