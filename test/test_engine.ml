(* The capability-based runner engine (DESIGN.md §11): one surface for
   both execution backends.  The sim declares every capability and
   stays bit-for-bit deterministic (the golden CSV pins the full row;
   here we pin the new profile and the provenance tag); domains runs
   the declared subset and fails fast with [Unsupported] on the rest —
   never a silent no-op. *)

open Ibr_harness

let small_spec = { (Workload.spec_for "hashmap") with key_range = 256 }

(* A closed-loop hashmap point on Domains; the horizon is in us. *)
let domains_run ?faults ~threads ~horizon tracker =
  Campaign.run
    (Campaign.point ~spec:small_spec ?faults ~backend:Domains ~seed:0xd0e5
       ~threads ~horizon tracker "hashmap")

(* An exec that can never run anything: only the capability gate is
   exercised, so no closure should ever be reached. *)
let dummy_exec caps =
  {
    Runner_intf.backend = "dummy";
    caps;
    spawn = (fun _ -> assert false);
    spawn_aux = (fun _ -> assert false);
    launch = (fun () -> assert false);
    now = (fun () -> 0);
    wait = (fun _ -> ());
    worker_running = (fun () -> false);
    aux_running = (fun () -> false);
    worker_tick = (fun ~tid:_ -> false);
    neutralize = (fun ~eject:_ ~tid:_ -> assert false);
    makespan = (fun () -> 0);
    publish_crashes = (fun () -> ());
  }

(* ---- the capability matrix, profile by profile ---- *)

let test_capability_matrix () =
  (* Stalls, the ejecting watchdog and a capped allocator run on every
     backend; only crashes and restart signals need a capability. *)
  List.iter
    (fun (name, want) ->
       Alcotest.(check (list string))
         (name ^ " requires") want
         (Runner_intf.required_caps
            (Option.get (Runner_intf.faults_of_string name))))
    [ ("none", []); ("stall-storm", []); ("crash", [ "crash_faults" ]);
      ("crash+capped", [ "crash_faults" ]);
      ("crash+watchdog", [ "crash_faults" ]); ("stall+watchdog", []);
      ("stall+neutralize", [ "neutralize" ]) ];
  List.iter
    (fun (name, f) ->
       Alcotest.(check (list string))
         (name ^ " runnable on sim") []
         (Runner_intf.missing Run_engine.sim_caps f);
       let expected_on_domains =
         List.filter
           (fun c -> not (Runner_intf.has Run_engine.domains_caps c))
           (Runner_intf.required_caps f)
       in
       Alcotest.(check (list string))
         (name ^ " on domains") expected_on_domains
         (Runner_intf.missing Run_engine.domains_caps f))
    Runner_intf.fault_profiles;
  (* The crash family is exactly what domains cannot honor. *)
  List.iter
    (fun name ->
       let f = Option.get (Runner_intf.faults_of_string name) in
       Alcotest.(check bool)
         (name ^ " blocked on domains") true
         (List.mem "crash_faults"
            (Runner_intf.missing Run_engine.domains_caps f)))
    [ "crash"; "crash+capped"; "crash+watchdog" ];
  List.iter
    (fun name ->
       let f = Option.get (Runner_intf.faults_of_string name) in
       Alcotest.(check (list string))
         (name ^ " honored on domains") []
         (Runner_intf.missing Run_engine.domains_caps f))
    [ "none"; "stall-storm"; "stall+watchdog"; "stall+neutralize" ]

(* Random capability records: [missing] must be exactly the required
   set minus what the record holds, and [require] must raise
   [Unsupported] naming the first missing capability. *)
let gen_caps =
  QCheck.Gen.map
    (fun bits ->
       {
         Runner_intf.crash_faults = bits land 1 <> 0;
         neutralize = bits land 2 <> 0;
         probes = bits land 4 <> 0;
       })
    (QCheck.Gen.int_bound 7)

let qcheck_missing_consistent =
  QCheck.Test.make ~name:"missing = required \\ held; require raises first"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair gen_caps
           (int_bound (List.length Runner_intf.fault_profiles - 1))))
    (fun (caps, i) ->
       let _, f = List.nth Runner_intf.fault_profiles i in
       let miss = Runner_intf.missing caps f in
       let req = Runner_intf.required_caps f in
       let subset_ok =
         List.for_all
           (fun c -> List.mem c req && not (Runner_intf.has caps c))
           miss
         && List.for_all
              (fun c -> Runner_intf.has caps c || List.mem c miss)
              req
       in
       let require_ok =
         match Runner_intf.require (dummy_exec caps) f with
         | () -> miss = []
         | exception Runner_intf.Unsupported { backend; capability } ->
           backend = "dummy" && (match miss with
             | first :: _ -> first = capability
             | [] -> false)
       in
       subset_ok && require_ok)

(* ---- sim: the new profile is deterministic and actually ejects ---- *)

let test_sim_stall_watchdog_deterministic () =
  let go () =
    let faults = Option.get (Runner_intf.faults_of_string "stall+watchdog") in
    let cfg =
      (* Ejection needs grace+1 watchdog checks = 60k cycles; leave a
         period of slack past that. *)
      Runner_sim.default_config ~threads:4 ~cores:4 ~horizon:90_000
        ~seed:0xb6 ~faults ~spec:small_spec ()
    in
    Option.get (Runner_sim.run_named ~tracker_name:"EBR" ~ds_name:"hashmap" cfg)
  in
  let a = go () and b = go () in
  Alcotest.(check string) "bit-identical CSV row" (Stats.to_csv_row a)
    (Stats.to_csv_row b);
  Alcotest.(check string) "provenance tag" "sim" a.Stats.backend;
  Alcotest.(check bool) "parked worker ejected" true
    (Stats.metric a "ejections" >= 1);
  Alcotest.(check int) "no crash was injected" 0 (Stats.metric a "crashes")

let test_tagged_csv_shape () =
  let cfg =
    Runner_sim.default_config ~threads:2 ~cores:2 ~horizon:10_000
      ~spec:small_spec ()
  in
  let r =
    Option.get (Runner_sim.run_named ~tracker_name:"EBR" ~ds_name:"hashmap" cfg)
  in
  Alcotest.(check string) "tagged header = backend, + header"
    ("backend," ^ Stats.csv_header ())
    (Stats.csv_header_tagged ());
  Alcotest.(check string) "tagged row = backend, + row"
    (r.Stats.backend ^ "," ^ Stats.to_csv_row r)
    (Stats.to_csv_row_tagged r);
  (* The untagged layout is pinned by the golden CSV; here just the
     width invariant the tagged variant must keep. *)
  Alcotest.(check int) "tagged width = untagged + 1"
    (List.length (String.split_on_char ',' (Stats.csv_header ())) + 1)
    (List.length (String.split_on_char ',' (Stats.csv_header_tagged ())))

(* ---- domains: honored subset runs, the rest fails fast ---- *)

let test_domains_runs_fault_free () =
  let r = Option.get (domains_run ~threads:2 ~horizon:100_000 "2GEIBR") in
  Alcotest.(check string) "provenance tag" "domains" r.Stats.backend;
  Alcotest.(check bool) "did ops" true (r.Stats.ops > 0);
  Alcotest.(check bool) "wall-clock makespan in us" true (r.Stats.makespan > 0)

let test_domains_stall_watchdog_ejects () =
  let faults = Option.get (Runner_intf.faults_of_string "stall+watchdog") in
  (* period*grace = 45 ms of wall clock; 0.2 s leaves room to eject. *)
  let r = Option.get (domains_run ~faults ~threads:3 ~horizon:200_000 "EBR") in
  Alcotest.(check bool) "wall-clock watchdog ejected the parked worker" true
    (Stats.metric r "ejections" >= 1);
  Alcotest.(check bool) "survivors made progress" true (r.Stats.ops > 0)

let test_domains_crash_unsupported () =
  List.iter
    (fun name ->
       let faults = Option.get (Runner_intf.faults_of_string name) in
       Alcotest.check_raises (name ^ " refused on domains")
         (Runner_intf.Unsupported
            { backend = "domains"; capability = "crash_faults" })
         (fun () ->
            ignore (domains_run ~faults ~threads:2 ~horizon:50_000 "EBR")))
    [ "crash"; "crash+capped"; "crash+watchdog" ]

(* Probes read the tid and clock through the simulator's handler and
   record into unsynchronised rings, so with a trace recording a
   domains run fails fast, before any domain starts, and the same run
   on the sim still goes through and records. *)
let test_probes_need_capability () =
  Alcotest.(check bool) "sim declares probes" true
    (Runner_intf.has Run_engine.sim_caps "probes");
  Alcotest.(check bool) "domains does not" false
    (Runner_intf.has Run_engine.domains_caps "probes");
  let sim =
    Runner_sim.default_config ~threads:2 ~cores:2 ~horizon:10_000
      ~spec:small_spec ()
  in
  Ibr_obs.Probe.start ~capacity:1024 ~threads:4 ();
  Fun.protect ~finally:Ibr_obs.Probe.stop (fun () ->
    Alcotest.check_raises "tracing refused on domains"
      (Runner_intf.Unsupported { backend = "domains"; capability = "probes" })
      (fun () -> ignore (domains_run ~threads:2 ~horizon:50_000 "EBR"));
    let r =
      Option.get
        (Runner_sim.run_named ~tracker_name:"EBR" ~ds_name:"hashmap" sim)
    in
    Alcotest.(check bool) "the sim run completes" true (r.Stats.ops > 0);
    Alcotest.(check bool) "and is traced" true
      (Ibr_obs.Probe.events () <> []))

(* ---- installed handlers: the native path stays dispatch-free ---- *)

let installed = Ibr_runtime.Hooks.installed

let test_no_handler_outside_runs () =
  Alcotest.(check int) "no handler installed" 0 (installed ())

(* Sched.run installs its handler for the run only, and takes it down
   again when a fiber's exception escapes the run. *)
let test_sched_run_restores_count () =
  let open Ibr_runtime in
  let inside = ref (-1) in
  let s = Sched.create (Sched.test_config ()) in
  ignore (Sched.spawn s (fun _ -> inside := installed ()));
  Sched.run s;
  Alcotest.(check int) "one handler during the run" 1 !inside;
  Alcotest.(check int) "none after it" 0 (installed ());
  let s = Sched.create (Sched.test_config ()) in
  ignore (Sched.spawn s (fun _ -> failwith "boom"));
  Alcotest.check_raises "the fiber's exception escapes" (Failure "boom")
    (fun () -> Sched.run s);
  Alcotest.(check int) "none after a raising run" 0 (installed ())

(* What a domains worker sees of the handler count, per profile. *)
let installed_in_worker profile =
  let faults = Option.get (Runner_intf.faults_of_string profile) in
  let exec =
    Run_engine.domains_exec ~threads:1 ~duration_s:0.01 ~seed:1 ~faults ()
  in
  let seen = ref (-1) in
  exec.spawn (fun ~tid:_ -> seen := installed ());
  exec.launch ();
  !seen

let test_domains_install_no_handler () =
  List.iter
    (fun profile ->
       Alcotest.(check int) (profile ^ ": no handler in the worker") 0
         (installed_in_worker profile))
    [ "none"; "stall-storm" ];
  Alcotest.(check int) "stall+neutralize: the rail handler" 1
    (installed_in_worker "stall+neutralize");
  Alcotest.(check int) "none after the runs" 0 (installed ())

(* The rails still work: an operation spinning on guarded reads is
   unwound by a signal raised from another domain, recovers through
   [on_neutralize], and completes on its retry.  The watchdog is left
   out so no neutralization gauge is registered this early. *)
let test_domains_neutralize_delivers () =
  let faults = Option.get (Runner_intf.faults_of_string "stall+neutralize") in
  let exec =
    Run_engine.domains_exec ~threads:1 ~duration_s:1.0 ~seed:1 ~faults ()
  in
  let started = Atomic.make false and recovered = Atomic.make 0 in
  let attempts = Atomic.make 0 and completed = Atomic.make 0 in
  let cell = Atomic.make 0 in
  (* A lost signal fails the checks below instead of hanging. *)
  let deadline = Ibr_runtime.Monotonic.now_ns () + 2_000_000_000 in
  exec.spawn (fun ~tid:_ ->
    Ibr_ds.Ds_common.with_op ~start_op:ignore ~end_op:ignore
      ~on_neutralize:(fun () -> Atomic.incr recovered)
      (fun () ->
         Atomic.incr attempts;
         Atomic.set started true;
         while
           Atomic.get recovered = 0
           && Ibr_runtime.Monotonic.now_ns () < deadline
         do
           ignore (Ibr_core.Prim.read cell)
         done;
         Atomic.incr completed));
  exec.spawn_aux (fun () ->
    while not (Atomic.get started) && exec.aux_running () do
      Domain.cpu_relax ()
    done;
    exec.neutralize ~eject:ignore ~tid:0);
  exec.launch ();
  Alcotest.(check int) "one recovery" 1 (Atomic.get recovered);
  (* The unwound attempt is the one [f] call beyond the first. *)
  Alcotest.(check int) "counted by the operation" 1
    (Atomic.get attempts - 1);
  Alcotest.(check int) "the operation completed once" 1
    (Atomic.get completed)

let suite =
  [
    Alcotest.test_case "capability matrix (profiles x backends)" `Quick
      test_capability_matrix;
    QCheck_alcotest.to_alcotest qcheck_missing_consistent;
    Alcotest.test_case "sim stall+watchdog: deterministic, ejects" `Quick
      test_sim_stall_watchdog_deterministic;
    Alcotest.test_case "tagged CSV wraps the untagged layout" `Quick
      test_tagged_csv_shape;
    Alcotest.test_case "domains runs fault-free" `Slow
      test_domains_runs_fault_free;
    Alcotest.test_case "domains stall+watchdog ejects on wall clock" `Slow
      test_domains_stall_watchdog_ejects;
    Alcotest.test_case "crash profiles raise Unsupported on domains" `Quick
      test_domains_crash_unsupported;
    Alcotest.test_case "probes raise Unsupported on domains, run on sim"
      `Quick test_probes_need_capability;
    Alcotest.test_case "no handler installed outside runs" `Quick
      test_no_handler_outside_runs;
    Alcotest.test_case "Sched.run restores the handler count" `Quick
      test_sched_run_restores_count;
    Alcotest.test_case "domains none/stall-storm install no handler" `Slow
      test_domains_install_no_handler;
    Alcotest.test_case "domains stall+neutralize delivers and recovers" `Slow
      test_domains_neutralize_delivers;
  ]
