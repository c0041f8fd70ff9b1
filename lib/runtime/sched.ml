(* Discrete-event multiprocessor scheduler.

   Simulated threads are effect-handler coroutines ("fibers").  Every
   shared-memory primitive in tracker / data-structure code calls
   [Hooks.step cost]; inside the simulator this performs the [Step]
   effect, suspending the fiber so the scheduler can charge the cost
   and decide whether to keep the thread on its core or preempt it.

   The machine model: [cores] identical cores, each with a next-free
   virtual timestamp.  A dispatch picks the runnable thread that has
   been ready longest and the earliest-free core; the thread then runs
   for up to one [quantum] of cost units.  When there are more threads
   than cores, threads queue for cores — which is exactly how the
   paper's >72-thread oversubscription region produces stalled
   reservations.  Random involuntary stalls (long preemptions) can be
   injected on top, and tests can pin a thread into a permanent stall
   to measure robustness.

   Determinism: given the same config (including seed) and the same
   thread bodies, a run is bit-reproducible.  Ties are broken by
   thread id and core index. *)

type _ Effect.t += Step : unit Effect.t

type _ Effect.t += Crash : unit Effect.t
(* Performed by a thread crashing *itself* mid-operation.  The handler
   abandons the continuation without resuming or discontinuing it, so
   — unlike [Stopped] unwinding — no cleanup handler runs: whatever
   reservations the thread held stay pinned forever.  That is the
   crash-fault model of the robustness literature (DEBRA+/NBR). *)

type _ Effect.t += Neutralize : int -> unit Effect.t
(* Performed by a thread to flag *another* thread for neutralization
   (DEBRA+ restart signal).  The handler marks the victim and resumes
   the caller immediately; the victim observes [Hooks.Neutralized] at
   its next resumption with the restart window open.  Unlike [Crash],
   the victim is unwound through its cleanup path and keeps working. *)

exception Stopped
(* Raised into still-paused fibers when the run ends, so that their
   cleanup handlers execute.  Thread bodies must not swallow it. *)

type config = {
  cores : int;          (* simulated hardware parallelism *)
  quantum : int;        (* cost units a thread may run before preemption *)
  ctx_switch : int;     (* core-side cost of a thread switch *)
  stall_prob : float;   (* chance per quantum of an involuntary stall *)
  stall_len : int;      (* virtual length of an injected stall *)
  crash_prob : float;   (* chance per quantum of a crash fault *)
  max_crashes : int;    (* cap on injected crashes per run *)
  perform_threshold : int; (* min accumulated cost between suspensions *)
  seed : int;
}

(* Defaults calibrated against the paper's machine regime (see
   DESIGN.md §1): the OS timeslice (quantum) holds a few hundred
   data-structure operations, and an involuntary stall — which is
   injected only when threads outnumber cores, since the paper pins
   one thread per hardware context below that — lasts an order of
   magnitude longer than the global epoch period.  That ratio is what
   produces Fig. 9's divergence beyond 72 threads. *)
let default_config = {
  cores = 72;
  quantum = 15_000;
  ctx_switch = 400;
  stall_prob = 0.002;
  stall_len = 240_000;
  crash_prob = 0.0;
  max_crashes = 1;
  perform_threshold = 12;
  seed = 0xf00d;
}

(* A config for tests that want maximal interleaving: single step per
   suspension, tiny quanta, no injected stalls (tests inject their
   own). *)
let test_config ?(cores = 4) ?(seed = 42) () = {
  cores;
  quantum = 40;
  ctx_switch = 1;
  stall_prob = 0.0;
  stall_len = 0;
  crash_prob = 0.0;
  max_crashes = 1;
  perform_threshold = 1;
  seed;
}

type status = Done | Yielded

(* Pluggable decision source (model checking / replay).  When
   installed, each dispatch choice — which runnable thread receives
   the next quantum — is taken from the decider instead of the
   earliest-ready policy, turning the scheduler into an enumerable
   branching point: with [quantum = 1] and [perform_threshold = 1]
   every shared-memory primitive is one decision.  Injected stalls are
   subsumed (a decider that withholds a thread has stalled it), so
   strategies need no separate stall hook. *)
type decider = runnable:int array -> current:int -> int

type fiber =
  | Not_started of (int -> unit)
  | Paused of (unit, status) Effect.Deep.continuation
  | Finished

type thread = {
  tid : int;
  mutable fiber : fiber;
  mutable ready_at : int;   (* virtual time at which it may next run *)
  mutable vtime : int;      (* total cycles this thread has executed *)
  mutable acc : int;        (* cost accrued since last suspension *)
  mutable stalled : bool;   (* permanently stalled by the harness *)
  mutable crashed : bool;   (* crash-faulted: dead, cleanups never ran *)
  mutable quanta : int;     (* quanta received (observability) *)
  mutable neutralized : bool; (* restart signal pending delivery *)
  mutable restart_ok : bool;  (* restart window open (Hooks.restart_window) *)
  service : bool;           (* exempt from injected stalls and crashes *)
}

type t = {
  cfg : config;
  mutable threads : thread list; (* reverse spawn order *)
  mutable n_threads : int;
  rng : Rng.t;
  mutable running : thread option;
  mutable makespan : int;
  mutable ran : bool;
  (* Global event sequence: bumped on every charged step, it gives a
     machine-wide timestamp consistent with the order in which shared
     -memory effects actually execute (virtual per-core times can
     reorder across cores; this cannot).  Used to timestamp
     linearizability histories. *)
  mutable gseq : int;
  mutable decider : decider option;
  mutable last_tid : int; (* last dispatched tid; -1 before the first *)
  mutable crashes : int;  (* crash faults delivered (injected + explicit) *)
}

let create cfg =
  if cfg.cores < 1 then invalid_arg "Sched.create: cores must be >= 1";
  if cfg.quantum < 1 then invalid_arg "Sched.create: quantum must be >= 1";
  { cfg; threads = []; n_threads = 0; rng = Rng.create cfg.seed;
    running = None; makespan = 0; ran = false; gseq = 0;
    decider = None; last_tid = -1; crashes = 0 }

let set_decider t d =
  if t.ran then invalid_arg "Sched.set_decider: scheduler already ran";
  t.decider <- Some d

let spawn_fiber ~service t body =
  if t.ran then invalid_arg "Sched.spawn: scheduler already ran";
  let tid = t.n_threads in
  t.threads <- { tid; fiber = Not_started body; ready_at = 0; vtime = 0;
                 acc = 0; stalled = false; crashed = false; quanta = 0;
                 neutralized = false; restart_ok = false; service }
               :: t.threads;
  t.n_threads <- tid + 1;
  tid

let spawn t body = spawn_fiber ~service:false t body
let spawn_service t body = spawn_fiber ~service:true t body

let thread_array t =
  let arr = Array.of_list t.threads in
  (* [t.threads] is in reverse spawn order. *)
  Array.sort (fun a b -> compare a.tid b.tid) arr;
  arr

let find_thread t tid =
  match List.find_opt (fun th -> th.tid = tid) t.threads with
  | Some th -> th
  | None -> invalid_arg "Sched: no such thread"

let stall t tid = (find_thread t tid).stalled <- true
let unstall t tid = (find_thread t tid).stalled <- false

(* Mark a thread crash-faulted.  Crashing the *calling* thread performs
   [Crash] so the fiber dies at this very point (its continuation is
   abandoned, never discontinued — cleanup handlers do not run);
   crashing another thread leaves its paused continuation wherever it
   last suspended, equally without unwinding.  Crashing a thread that
   already finished is a no-op: it released everything at exit. *)
let crash t tid =
  let th = find_thread t tid in
  if not th.crashed && th.fiber <> Finished then begin
    th.crashed <- true;
    t.crashes <- t.crashes + 1;
    Ibr_obs.Probe.crash ~tid;
    match t.running with
    | Some r when r.tid = tid -> Effect.perform Crash
    | _ -> ()
  end

let crash_self () = Effect.perform Crash

(* Flag a thread for neutralization.  The signal is delivered as
   [Hooks.Neutralized] at the victim's next resumption whose restart
   window is open; a pending flag simply waits for that point, so the
   signal can never unwind a section that masked it.  Dead threads
   ignore the signal (nothing to heal). *)
let neutralize t tid =
  let th = find_thread t tid in
  if (not th.crashed) && th.fiber <> Finished then begin
    th.neutralized <- true;
    Ibr_obs.Probe.neutralization ~victim:tid
  end

let neutralize_peer tid = Effect.perform (Neutralize tid)

let crashes t = t.crashes
let crashed t tid = (find_thread t tid).crashed

(* Scheduler instances come and go; the metric is published per run. *)
let crashes_gauge = Ibr_obs.Metrics.register_gauge ~name:"crashes" ~order:500
let publish_crashes t = crashes_gauge := t.crashes

let makespan t = t.makespan
let thread_vtime t tid = (find_thread t tid).vtime
let thread_quanta t tid = (find_thread t tid).quanta

(* Resume a fiber for its next segment.  The deep handler converts the
   fiber's next suspension (or termination) into a [status].  A [Crash]
   abandons the continuation: it is neither resumed nor discontinued,
   so the fiber's cleanup handlers never run — the defining difference
   from [Stopped] unwinding. *)
let resume_segment t th =
  match th.fiber with
  | Finished -> Done
  | Paused k ->
    th.fiber <- Finished; (* overwritten on next suspension *)
    if th.neutralized && th.restart_ok then begin
      (* Deliver the restart signal at the resumption boundary.  This
         is sound without any guard-path poll: fibers interleave only
         at suspension points, and every [Prim] wrapper charges (and
         may suspend) *before* its memory access — so any block freed
         by another thread since this fiber last ran has a delivery
         point strictly before the first instruction that could
         dereference it. *)
      th.neutralized <- false;
      Effect.Deep.discontinue k Hooks.Neutralized
    end
    else Effect.Deep.continue k ()
  | Not_started body ->
    th.fiber <- Finished;
    let handler = {
      Effect.Deep.retc = (fun () -> Done);
      exnc = (function Stopped -> Done | e -> raise e);
      effc = (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Step -> Some (fun (k : (a, status) Effect.Deep.continuation) ->
            th.fiber <- Paused k;
            Yielded)
        | Crash -> Some (fun (_ : (a, status) Effect.Deep.continuation) ->
            if not th.crashed then begin
              th.crashed <- true;
              t.crashes <- t.crashes + 1;
              Ibr_obs.Probe.crash ~tid:th.tid
            end;
            Done)
        | Neutralize victim ->
          Some (fun (k : (a, status) Effect.Deep.continuation) ->
            neutralize t victim;
            Effect.Deep.continue k ())
        | _ -> None);
    } in
    Effect.Deep.match_with (fun () -> body th.tid) () handler

(* Run thread [th] for one quantum starting at virtual time [start].
   Returns the number of cycles consumed. *)
let run_quantum t th ~start:_ =
  let cfg = t.cfg in
  let consumed = ref 0 in
  let continue_ = ref true in
  t.running <- Some th;
  while !continue_ do
    match resume_segment t th with
    | Done ->
      (* Flush trailing accrued cost. *)
      consumed := !consumed + th.acc;
      th.vtime <- th.vtime + th.acc;
      th.acc <- 0;
      th.fiber <- Finished;
      continue_ := false
    | Yielded ->
      consumed := !consumed + th.acc;
      th.vtime <- th.vtime + th.acc;
      th.acc <- 0;
      if !consumed >= cfg.quantum then continue_ := false
  done;
  t.running <- None;
  th.quanta <- th.quanta + 1;
  !consumed

let runnable th =
  (not th.stalled) && (not th.crashed) && th.fiber <> Finished

(* Main loop.  [horizon] bounds *virtual wall-clock* time: no quantum
   is dispatched at or after it, mirroring the paper's fixed-duration
   runs. *)
let run ?(horizon = max_int) t =
  if t.ran then invalid_arg "Sched.run: scheduler already ran";
  t.ran <- true;
  let threads = thread_array t in
  let cores = Array.make t.cfg.cores 0 in
  let hooks = {
    Hooks.step = (fun cost ->
      match t.running with
      | None -> ()
      | Some th ->
        t.gseq <- t.gseq + 1;
        th.acc <- th.acc + cost;
        if th.acc >= t.cfg.perform_threshold then Effect.perform Step);
    current_tid = (fun () ->
      match t.running with Some th -> th.tid | None -> 0);
    now = (fun () ->
      match t.running with Some th -> th.vtime + th.acc | None -> 0);
    global_now = (fun () -> t.gseq);
    restart_window = (fun open_ ->
      match t.running with
      | None -> false
      | Some th ->
        let prev = th.restart_ok in
        th.restart_ok <- open_;
        prev);
    (* Delivery happens at resumption (see [resume_segment]); the
       guard-path poll is only needed by backends without a scheduler
       in the loop. *)
    poll_neutralize = (fun () -> ());
  } in
  Hooks.with_handler hooks (fun () ->
    let continue_loop = ref true in
    while !continue_loop do
      let best =
        match t.decider with
        | None ->
          (* Earliest-ready runnable thread; ties by tid. *)
          let best = ref None in
          Array.iter (fun th ->
            if runnable th then
              match !best with
              | None -> best := Some th
              | Some b -> if th.ready_at < b.ready_at then best := Some th)
            threads;
          !best
        | Some decide ->
          (* Candidate tids in ascending order ([threads] is sorted). *)
          let tids =
            Array.to_list threads
            |> List.filter_map (fun th ->
                 if runnable th then Some th.tid else None)
            |> Array.of_list
          in
          if Array.length tids = 0 then None
          else begin
            let tid = decide ~runnable:tids ~current:t.last_tid in
            if not (Array.exists (Int.equal tid) tids) then
              invalid_arg "Sched: decider chose a non-runnable thread";
            Some threads.(tid)
          end
      in
      match best with
      | None -> continue_loop := false
      | Some th ->
        t.last_tid <- th.tid;
        (* Earliest-free core; ties by index. *)
        let core = ref 0 in
        for i = 1 to Array.length cores - 1 do
          if cores.(i) < cores.(!core) then core := i
        done;
        let start = max th.ready_at cores.(!core) in
        if start >= horizon then begin
          (* Past the horizon: unwind the fiber so cleanups run. *)
          (match th.fiber with
           | Paused k ->
             t.running <- Some th;
             (try ignore (Effect.Deep.discontinue k Stopped)
              with Stopped -> ());
             t.running <- None
           | Not_started _ | Finished -> ());
          th.fiber <- Finished
        end else begin
          let used = run_quantum t th ~start in
          let finish = start + used in
          cores.(!core) <- finish + t.cfg.ctx_switch;
          th.ready_at <- finish;
          if t.makespan < finish then t.makespan <- finish;
          (* Involuntary stall injection: only meaningful when threads
             outnumber cores (below that, the paper's methodology pins
             each thread to a dedicated hardware context).  Every fiber
             draws, so the PRNG stream does not depend on which fibers
             are service fibers; only workers take the stall. *)
          if
            t.n_threads > t.cfg.cores
            && t.cfg.stall_prob > 0.0
            && Rng.chance t.rng t.cfg.stall_prob
            && not th.service
          then th.ready_at <- th.ready_at + t.cfg.stall_len;
          (* Crash injection: the thread dies wherever the quantum left
             it — almost always mid-operation, reservations posted.
             Unlike stalls this needs no oversubscription; a crash is a
             process fault, not a scheduling artifact.  A service fiber
             draws like a worker but never dies: a run whose watchdog
             crashed would measure a healthy run. *)
          if
            t.crashes < t.cfg.max_crashes
            && t.cfg.crash_prob > 0.0
            && th.fiber <> Finished
            && (not th.crashed)
            && Rng.chance t.rng t.cfg.crash_prob
            && not th.service
          then begin
            th.crashed <- true;
            t.crashes <- t.crashes + 1;
            Ibr_obs.Probe.crash ~tid:th.tid
          end
        end
    done;
    (* Unwind permanently stalled / never-dispatched fibers — except
       crashed ones, whose continuations are abandoned unresumed so
       their cleanup handlers (end_op, reservation clears) never run. *)
    Array.iter (fun th ->
      match th.fiber with
      | Paused _ when th.crashed -> th.fiber <- Finished
      | Paused k ->
        t.running <- Some th;
        (try ignore (Effect.Deep.discontinue k Stopped) with Stopped -> ());
        t.running <- None;
        th.fiber <- Finished
      | Not_started _ -> th.fiber <- Finished
      | Finished -> ())
      threads)

(* Convenience: build, spawn [n] copies of [body], run, return sched. *)
let run_threads ?(cfg = default_config) ?horizon ~n body =
  let t = create cfg in
  for i = 0 to n - 1 do
    ignore (spawn t (fun tid -> body ~tid ~index:i))
  done;
  run ?horizon t;
  t
