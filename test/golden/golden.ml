(* The golden fixture: the registry's CSV header and three simulated
   rows.  `dune runtest` diffs this output against stats.csv byte for
   byte, so any drift in the column set, the column order or the
   simulation itself fails; `dune promote` takes a deliberate change.
   It runs in a process of its own, before anything can widen the
   registry (--hist, a service run or a neutralizing watchdog). *)

open Ibr_harness

let row ?faults ~threads ~horizon ~seed tracker ds =
  Option.get
    (Campaign.run
       (Campaign.point
          ~spec:(Workload.spec_for ~mix:Workload.write_dominated ds)
          ~cores:8 ?faults ~seed ~threads ~horizon tracker ds))

let () =
  let rows =
    [ row ~threads:4 ~horizon:50_000 ~seed:42 "2GEIBR" "hashmap";
      row ~threads:4 ~horizon:50_000 ~seed:42 "EBR" "hashmap";
      row ~faults:(Cli.parse_faults "crash") ~threads:3 ~horizon:40_000
        ~seed:7 "HP" "list" ]
  in
  List.iter print_endline (Stats.csv_header () :: List.map Stats.to_csv_row rows)
