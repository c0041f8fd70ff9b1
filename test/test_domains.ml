(* Real-parallelism stress: the same code on OCaml domains.  With one
   hardware core this still exercises preemptive interleaving of
   actual atomics; assertions are safety (no faults), conservation of
   allocator accounting, and structural invariants at quiescence. *)

open Ibr_core

let run_domains ?mix (e : Registry.entry) ds_name () =
  Fault.set_mode Fault.Raise;
  let spec =
    { (Ibr_harness.Workload.spec_for ?mix ds_name) with key_range = 512 } in
  match
    Ibr_harness.Campaign.(
      run
        (point ~spec ~backend:Domains ~seed:0xd0e5
           ~tweak:(fun c -> { c with reuse = false })
           ~threads:4 ~horizon:150_000 e.name ds_name))
  with
  | None -> Alcotest.failf "%s cannot run on %s" e.name ds_name
  | Some r ->
    Alcotest.(check int) "no faults" 0 (Ibr_harness.Stats.metric r "faults");
    Alcotest.(check bool) "ops happened" true (r.ops > 0);
    Alcotest.(check bool) "freed <= allocated" true
      (Ibr_harness.Stats.metric r "freed"
       <= Ibr_harness.Stats.metric r "allocated")

(* [rideables] x [trackers], keeping only the pairings the registry
   accepts, so every case runs something. *)
let compatible_cases ?mix ~prefix trackers rideables =
  List.concat_map
    (fun ds ->
       let maker = Ibr_ds.Ds_registry.find_exn ds in
       List.filter_map
         (fun (e : Registry.entry) ->
            if not (Ibr_ds.Ds_registry.compatible maker e.tracker) then None
            else
              Some
                (Alcotest.test_case
                   (Printf.sprintf "%s %s/%s" prefix ds e.name)
                   `Slow (run_domains ?mix e ds)))
         trackers)
    rideables

(* Every rideable crossed with a tracker lineup that covers each
   reservation style: epoch (EBR, Fraser-EBR, QSBR), pointer (HP, HE)
   and interval (POIBR, TagIBR, TagIBR-WCAS, 2GEIBR). *)
let cases =
  compatible_cases ~prefix:"domains"
    [ Registry.ebr; Registry.fraser_ebr; Registry.qsbr; Registry.hp;
      Registry.he; Registry.po_ibr; Registry.tag_ibr;
      Registry.tag_ibr_wcas; Registry.two_ge_ibr ]
    [ "list"; "hashmap"; "nmtree"; "bonsai" ]

(* The queue rideables under mix D (enqueue/dequeue churn) and the
   resizable hashmap under mix F (inserts racing forced table growth),
   under one scheme of each reservation style. *)
let churn_cases =
  let styles = [ Registry.ebr; Registry.hp; Registry.two_ge_ibr ] in
  compatible_cases ~mix:Ibr_harness.Workload.profile_d ~prefix:"domains"
    styles [ "stack"; "msqueue" ]
  @ compatible_cases ~mix:Ibr_harness.Workload.profile_f ~prefix:"domains"
      styles [ "rhashmap" ]

(* Range scans on real domains (mix E: 90% scans racing 5% inserts and
   5% removes), under every scheme whose protected reads retry: the
   pointer schemes and the interval family.  The scans hold one
   reservation across a whole traversal while writers retire the
   nodes behind them. *)
let scan_cases =
  compatible_cases ~mix:Ibr_harness.Workload.profile_e ~prefix:"domains scans"
    [ Registry.hp; Registry.he; Registry.po_ibr; Registry.tag_ibr;
      Registry.tag_ibr_wcas; Registry.tag_ibr_tpa; Registry.two_ge_ibr ]
    [ "list"; "nmtree"; "bonsai" ]

(* The allocator's statistics are per-thread shards summed on read.
   Two domains share one allocator in reuse mode.  Each allocates and
   frees on its own tid, and every third block crosses over: allocated
   on one tid, retired there, freed on the other.  Crossings are
   received in bursts of 256, more than the two magazines a cache
   holds, so a burst overflows to the depot and the rounds after it,
   which allocate one block more than they free, refill from there.
   After the join the sums must satisfy the allocator's identities
   exactly; a shard that two domains wrote would lose increments. *)
let test_alloc_shards_exact () =
  let a = Alloc.create ~threads:2 () in
  let rounds = 20_000 in
  let mailbox = Array.init 2 (fun _ -> Atomic.make []) in
  let finished = Atomic.make 0 in
  let worker tid () =
    let rec send b =
      let box = mailbox.(1 - tid) in
      let cur = Atomic.get box in
      if not (Atomic.compare_and_set box cur (b :: cur)) then send b
    in
    let receive () =
      List.iter (Alloc.free a ~tid) (Atomic.exchange mailbox.(tid) [])
    in
    for i = 1 to rounds do
      let own = Alloc.alloc a ~tid i in
      let unpublished = Alloc.alloc a ~tid i in
      let crossing = Alloc.alloc a ~tid i in
      Block.transition_retire own;
      Alloc.free a ~tid own;
      Alloc.free_unpublished a ~tid unpublished;
      Block.transition_retire crossing;
      send crossing;
      if i land 255 = 0 then receive ()
    done;
    (* Once both have finished sending, take what is left. *)
    Atomic.incr finished;
    while Atomic.get finished < 2 do Domain.cpu_relax () done;
    receive ()
  in
  let (), faults =
    Fault.with_counting (fun () ->
      List.iter Domain.join
        (List.map (fun tid -> Domain.spawn (worker tid)) [ 0; 1 ]))
  in
  let s = Alloc.stats a in
  Alcotest.(check int) "no fault reported" 0 faults;
  Alcotest.(check int) "allocated = 3 per round per domain"
    (2 * 3 * rounds) s.allocated;
  Alcotest.(check int) "allocated = fresh + reused" s.allocated
    (s.fresh + s.reused);
  Alcotest.(check int) "allocated = mag_hits + mag_misses" s.allocated
    (s.mag_hits + s.mag_misses);
  Alcotest.(check int) "reused = mag_hits + depot_refills" s.reused
    (s.mag_hits + s.depot_refills);
  Alcotest.(check int) "freed = allocated" s.allocated s.freed;
  Alcotest.(check int) "live = 0" 0 s.live;
  Alcotest.(check int) "footprint = 0" 0 (Alloc.footprint a);
  Alcotest.(check int) "cached = fresh" s.fresh s.cached;
  Alcotest.(check bool) "the depot was used both ways" true
    (s.depot_refills > 0 && s.depot_flushes > 0)

let suite =
  Alcotest.test_case "sharded allocator stats exact after join" `Quick
    test_alloc_shards_exact
  :: cases
  @ churn_cases
  @ scan_cases
