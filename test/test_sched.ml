(* Discrete-event scheduler: determinism, preemption, horizon,
   stalls, queueing under oversubscription, unwinding. *)

open Ibr_runtime

let run_trace ?(cores = 3) ?(seed = 7) ?(threads = 5) ?(steps = 30) () =
  let t = Sched.create (Sched.test_config ~cores ~seed ()) in
  let buf = Buffer.create 128 in
  for _ = 1 to threads do
    ignore
      (Sched.spawn t (fun tid ->
         for j = 1 to steps do
           Hooks.step (1 + ((tid + j) mod 5));
           Buffer.add_string buf (string_of_int tid)
         done))
  done;
  Sched.run t;
  (t, Buffer.contents buf)

let test_determinism () =
  let _, a = run_trace () and _, b = run_trace () in
  Alcotest.(check string) "identical traces" a b

let test_all_threads_run () =
  let _, trace = run_trace () in
  for tid = 0 to 4 do
    Alcotest.(check bool)
      (Printf.sprintf "thread %d appears" tid)
      true
      (String.contains trace (Char.chr (Char.code '0' + tid)))
  done

let test_interleaving_happens () =
  let _, trace = run_trace () in
  (* With tiny quanta the trace must not be five solid blocks. *)
  let switches = ref 0 in
  String.iteri
    (fun i c -> if i > 0 && trace.[i - 1] <> c then incr switches)
    trace;
  Alcotest.(check bool) "many context switches" true (!switches > 10)

let test_vtime_accounting () =
  let t = Sched.create (Sched.test_config ~cores:1 ()) in
  let tid =
    Sched.spawn t (fun _ -> for _ = 1 to 10 do Hooks.step 7 done) in
  Sched.run t;
  Alcotest.(check int) "vtime = total cost" 70 (Sched.thread_vtime t tid)

let test_makespan_single_core () =
  (* One core: makespan is the sum of all thread work. *)
  let t = Sched.create { (Sched.test_config ~cores:1 ()) with ctx_switch = 0 } in
  for _ = 1 to 4 do
    ignore (Sched.spawn t (fun _ -> for _ = 1 to 10 do Hooks.step 5 done))
  done;
  Sched.run t;
  Alcotest.(check int) "makespan 4*50" 200 (Sched.makespan t)

let test_makespan_parallel () =
  (* Enough cores: makespan is one thread's work. *)
  let t = Sched.create { (Sched.test_config ~cores:4 ()) with ctx_switch = 0 } in
  for _ = 1 to 4 do
    ignore (Sched.spawn t (fun _ -> for _ = 1 to 10 do Hooks.step 5 done))
  done;
  Sched.run t;
  Alcotest.(check int) "makespan 50" 50 (Sched.makespan t)

let test_horizon_cuts () =
  let t = Sched.create (Sched.test_config ~cores:1 ()) in
  let count = ref 0 in
  ignore
    (Sched.spawn t (fun _ ->
       for _ = 1 to 1_000_000 do Hooks.step 10; incr count done));
  Sched.run ~horizon:500 t;
  Alcotest.(check bool) "stopped early" true (!count < 100);
  Alcotest.(check bool) "did some work" true (!count > 10)

let test_horizon_unwinds_protect () =
  let t = Sched.create (Sched.test_config ~cores:1 ()) in
  let cleaned = ref false in
  ignore
    (Sched.spawn t (fun _ ->
       Fun.protect
         ~finally:(fun () -> cleaned := true)
         (fun () -> for _ = 1 to 1_000_000 do Hooks.step 10 done)));
  Sched.run ~horizon:200 t;
  Alcotest.(check bool) "finally ran on unwind" true !cleaned

let test_stalled_thread_never_runs () =
  let t = Sched.create (Sched.test_config ~cores:2 ()) in
  let ran = Array.make 2 false in
  for i = 0 to 1 do
    ignore (Sched.spawn t (fun tid -> Hooks.step 1; ran.(tid) <- true; ignore i))
  done;
  Sched.stall t 1;
  Sched.run t;
  Alcotest.(check bool) "thread 0 ran" true ran.(0);
  Alcotest.(check bool) "stalled thread did not" false ran.(1)

let test_current_tid_inside_fiber () =
  let t = Sched.create (Sched.test_config ~cores:2 ()) in
  let seen = Array.make 3 (-1) in
  for _ = 0 to 2 do
    ignore
      (Sched.spawn t (fun tid ->
         Hooks.step 1;
         seen.(tid) <- Hooks.current_tid ()))
  done;
  Sched.run t;
  Alcotest.(check (array int)) "hooks report own tid" [| 0; 1; 2 |] seen

let test_now_monotone_in_fiber () =
  let t = Sched.create (Sched.test_config ~cores:2 ()) in
  let ok = ref true in
  ignore
    (Sched.spawn t (fun _ ->
       let last = ref (-1) in
       for _ = 1 to 50 do
         Hooks.step 3;
         let n = Hooks.now () in
         if n < !last then ok := false;
         last := n
       done));
  Sched.run t;
  Alcotest.(check bool) "thread-local time monotone" true !ok

let test_oversubscription_stretches_makespan () =
  let work () =
    fun _tid -> for _ = 1 to 100 do Hooks.step 5 done in
  let m cores threads =
    let t = Sched.create { (Sched.test_config ~cores ()) with ctx_switch = 0 } in
    for _ = 1 to threads do ignore (Sched.spawn t (work ())) done;
    Sched.run t;
    Sched.makespan t
  in
  let dedicated = m 8 8 and oversub = m 4 8 in
  Alcotest.(check bool) "8 threads on 4 cores take ~2x" true
    (oversub >= dedicated * 2)

let test_spawn_after_run_rejected () =
  let t = Sched.create (Sched.test_config ()) in
  ignore (Sched.spawn t (fun _ -> Hooks.step 1));
  Sched.run t;
  Alcotest.check_raises "no spawn after run"
    (Invalid_argument "Sched.spawn: scheduler already ran") (fun () ->
      ignore (Sched.spawn t (fun _ -> ())))

let test_exception_propagates () =
  let t = Sched.create (Sched.test_config ~cores:1 ()) in
  ignore (Sched.spawn t (fun _ -> Hooks.step 1; failwith "boom"));
  Alcotest.check_raises "body exception surfaces" (Failure "boom") (fun () ->
    Sched.run t)

let test_stall_unstall_roundtrip () =
  (* Mid-run round trip: thread 0 stalls thread 1, works a while (the
     stalled thread must make zero progress), then unstalls it; the
     revived thread must finish its full workload. *)
  let t = Sched.create (Sched.test_config ~cores:1 ()) in
  let count1 = ref 0 in
  let at_stall = ref (-1) and at_unstall = ref (-1) in
  let sched = t in
  ignore
    (Sched.spawn t (fun _ ->
       for i = 1 to 40 do
         Hooks.step 2;
         if i = 10 then begin
           Sched.stall sched 1;
           at_stall := !count1
         end;
         if i = 30 then begin
           at_unstall := !count1;
           Sched.unstall sched 1
         end
       done));
  ignore
    (Sched.spawn t (fun _ ->
       for _ = 1 to 25 do
         Hooks.step 3;
         incr count1
       done));
  Sched.run t;
  Alcotest.(check bool) "stall happened mid-run" true (!at_stall >= 0);
  Alcotest.(check int) "no progress while stalled" !at_stall !at_unstall;
  Alcotest.(check int) "revived thread finished" 25 !count1

let test_crash_self_no_unwind () =
  let t = Sched.create (Sched.test_config ~cores:1 ()) in
  let cleaned = ref false and after = ref false in
  let tid =
    Sched.spawn t (fun _ ->
      Fun.protect
        ~finally:(fun () -> cleaned := true)
        (fun () ->
           Hooks.step 1;
           Sched.crash_self ();
           after := true))
  in
  ignore (Sched.spawn t (fun _ -> for _ = 1 to 5 do Hooks.step 1 done));
  Sched.run t;
  Alcotest.(check bool) "no code after crash point" false !after;
  Alcotest.(check bool) "cleanups never ran (contrast Stopped)" false !cleaned;
  Alcotest.(check bool) "thread recorded as crashed" true (Sched.crashed t tid);
  Alcotest.(check int) "one crash fault" 1 (Sched.crashes t)

let test_crash_other_freezes_progress () =
  let t = Sched.create (Sched.test_config ~cores:1 ()) in
  let sched = t in
  let count1 = ref 0 and at_crash = ref (-1) in
  ignore
    (Sched.spawn t (fun _ ->
       (* The crash point sits past the first quantum boundary so the
          victim has demonstrably run before it is killed. *)
       for i = 1 to 60 do
         Hooks.step 2;
         if i = 30 then begin
           Sched.crash sched 1;
           at_crash := !count1
         end
       done));
  ignore
    (Sched.spawn t (fun _ ->
       for _ = 1 to 1_000 do Hooks.step 3; incr count1 done));
  Sched.run t;
  Alcotest.(check bool) "victim had started" true (!at_crash > 0);
  Alcotest.(check int) "victim frozen at the crash point" !at_crash !count1;
  Alcotest.(check bool) "victim marked crashed" true (Sched.crashed t 1)

let test_crash_injection_deterministic () =
  (* Probabilistic injection must be a pure function of the seed, and
     the [max_crashes] cap must hold. *)
  let go () =
    let cfg =
      { (Sched.test_config ~cores:2 ~seed:41 ()) with
        quantum = 20; crash_prob = 0.3; max_crashes = 2 }
    in
    let t = Sched.create cfg in
    let buf = Buffer.create 64 in
    for _ = 1 to 4 do
      ignore
        (Sched.spawn t (fun tid ->
           for _ = 1 to 50 do
             Hooks.step 3;
             Buffer.add_string buf (string_of_int tid)
           done))
    done;
    Sched.run t;
    (Sched.crashes t, Buffer.contents buf)
  in
  let c1, tr1 = go () and c2, tr2 = go () in
  Alcotest.(check int) "same crash count" c1 c2;
  Alcotest.(check string) "same trace" tr1 tr2;
  Alcotest.(check bool) "at least one crash injected" true (c1 >= 1);
  Alcotest.(check bool) "max_crashes respected" true (c1 <= 2)

let test_quanta_counted () =
  let t = Sched.create { (Sched.test_config ~cores:1 ()) with quantum = 10 } in
  let tid = Sched.spawn t (fun _ -> for _ = 1 to 10 do Hooks.step 10 done) in
  Sched.run t;
  Alcotest.(check bool) "multiple quanta" true (Sched.thread_quanta t tid >= 5)

(* Service fibers (the watchdog, the background reclaimer) draw their
   stall chance like any fiber but never take the stall.  One core, two
   workers and one more fiber, every quantum a coin flip for a stall
   ten times longer than the run: a worker stops within a few quanta,
   while the third fiber keeps the core to the horizon if it is a
   service fiber and stops like the workers if it is not. *)
let test_service_fiber_never_stalled () =
  let horizon = 100_000 in
  let run spawn_third =
    let t =
      Sched.create
        { (Sched.test_config ~cores:1 ()) with
          quantum = 1_000; ctx_switch = 0; stall_prob = 0.5;
          stall_len = 10 * horizon }
    in
    let spin _ = while true do Hooks.step 10 done in
    let w0 = Sched.spawn t spin and w1 = Sched.spawn t spin in
    let third = spawn_third t spin in
    Sched.run ~horizon t;
    (Sched.thread_vtime t w0, Sched.thread_vtime t w1,
     Sched.thread_vtime t third)
  in
  let w0, w1, svc = run Sched.spawn_service in
  Alcotest.(check bool)
    (Printf.sprintf "workers stalled (ran %d and %d cycles)" w0 w1)
    true
    (w0 < horizon / 10 && w1 < horizon / 10);
  Alcotest.(check bool)
    (Printf.sprintf "service fiber ran to the horizon (%d cycles)" svc)
    true
    (svc > horizon * 9 / 10);
  let _, _, plain = run Sched.spawn in
  Alcotest.(check bool)
    (Printf.sprintf "the same fiber unmarked is stalled (%d cycles)" plain)
    true
    (plain < horizon / 10)

(* Crash injection at probability 1 with room for three crashes: both
   workers die in their first quantum, while the third fiber keeps
   the core to the horizon if it is a service fiber and dies like the
   workers if it is not. *)
let test_service_fiber_never_crashed () =
  let horizon = 100_000 in
  let run spawn_third =
    let t =
      Sched.create
        { (Sched.test_config ~cores:1 ()) with
          quantum = 1_000; ctx_switch = 0; crash_prob = 1.0;
          max_crashes = 3 }
    in
    let spin _ = while true do Hooks.step 10 done in
    let w0 = Sched.spawn t spin and w1 = Sched.spawn t spin in
    let third = spawn_third t spin in
    Sched.run ~horizon t;
    (Sched.crashed t w0 && Sched.crashed t w1, Sched.crashed t third,
     Sched.thread_vtime t third)
  in
  let workers, crashed, svc = run Sched.spawn_service in
  Alcotest.(check bool) "workers crashed" true workers;
  Alcotest.(check bool) "service fiber not crashed" false crashed;
  Alcotest.(check bool)
    (Printf.sprintf "service fiber ran to the horizon (%d cycles)" svc)
    true
    (svc > horizon * 9 / 10);
  let _, crashed, plain = run Sched.spawn in
  Alcotest.(check bool)
    (Printf.sprintf "the same fiber unmarked crashed (%d cycles)" plain)
    true
    (crashed && plain < horizon / 10)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "all threads run" `Quick test_all_threads_run;
    Alcotest.test_case "interleaving happens" `Quick test_interleaving_happens;
    Alcotest.test_case "vtime accounting" `Quick test_vtime_accounting;
    Alcotest.test_case "makespan single core" `Quick test_makespan_single_core;
    Alcotest.test_case "makespan parallel" `Quick test_makespan_parallel;
    Alcotest.test_case "horizon cuts" `Quick test_horizon_cuts;
    Alcotest.test_case "horizon unwinds Fun.protect" `Quick test_horizon_unwinds_protect;
    Alcotest.test_case "stalled thread never runs" `Quick test_stalled_thread_never_runs;
    Alcotest.test_case "current tid" `Quick test_current_tid_inside_fiber;
    Alcotest.test_case "now monotone" `Quick test_now_monotone_in_fiber;
    Alcotest.test_case "oversubscription stretches makespan" `Quick
      test_oversubscription_stretches_makespan;
    Alcotest.test_case "stall/unstall round-trip" `Quick
      test_stall_unstall_roundtrip;
    Alcotest.test_case "crash_self abandons without unwinding" `Quick
      test_crash_self_no_unwind;
    Alcotest.test_case "crash freezes the victim's progress" `Quick
      test_crash_other_freezes_progress;
    Alcotest.test_case "crash injection deterministic and capped" `Quick
      test_crash_injection_deterministic;
    Alcotest.test_case "spawn after run rejected" `Quick test_spawn_after_run_rejected;
    Alcotest.test_case "body exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "quanta counted" `Quick test_quanta_counted;
    Alcotest.test_case "service fibers take no injected stall" `Quick
      test_service_fiber_never_stalled;
    Alcotest.test_case "service fibers take no injected crash" `Quick
      test_service_fiber_never_crashed;
  ]
