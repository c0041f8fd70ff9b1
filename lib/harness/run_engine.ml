(* The one run loop, shared by both backends and both kinds of run
   (DESIGN.md §11).

   [drive] writes each step once — the capability gates, create and
   prefill, capacity sizing from the post-prefill working set, the
   background-reclaimer service thread, the watchdog, the handoff
   pre-drain, the metrics baseline, launch, shutdown quiescence and
   the instance gauges — and runs it through a {!Runner_intf.exec}:
   the record of what a backend can do.  The two constructors here
   build that record.  A [driver] supplies what differs between the
   closed loop ([run] below) and the open-loop service ([Service]):
   the prefill handle, the worker bodies, and the census view the
   watchdog reads.  Both drivers' workers go through one [dispatch]
   over [Workload.op].

   [sim_exec] wraps a discrete-event {!Sched.t}.  Its closures are
   chosen so the engine replays the old [Runner_sim.run] {e exactly}:
   [worker_running]/[aux_running]/[worker_tick] are constant [true]
   (fibers end by horizon unwinding, not polling), [wait] is
   [Hooks.step], and spawn order (workers, then reclaimer, then
   watchdog) fixes the same fiber tids — so the machine executes the
   same step sequence, draws the same PRNG stream, and the golden CSV
   stays byte-identical.

   [domains_exec] runs the registered bodies on real [Domain.t]s with
   monotonic wall-clock time at the 1 cycle ~ 1 us convention.
   Workers poll [worker_running] (every operation via [worker_tick]'s
   64-op cadence); service threads poll [aux_running], which goes
   false once every worker has joined.  Stall faults are injected as
   real [sleepf] stalls from a per-thread PRNG; crash faults cannot be
   injected into a domain from outside, so the capability is absent
   and crash profiles fail fast with [Unsupported] instead of the old
   silent zeroed gauges. *)

open Ibr_runtime
open Ibr_ds

type config = {
  threads : int;
  seed : int;
  tracker_cfg : Ibr_core.Tracker_intf.config;
  spec : Workload.spec;
  faults : Runner_intf.faults;
}

(* -- backend constructors -- *)

let sim_caps : Runner_intf.capabilities =
  { crash_faults = true; neutralize = true; probes = true }

let sim_exec ~sched ~horizon : Runner_intf.exec =
  {
    backend = "sim";
    caps = sim_caps;
    spawn = (fun body -> ignore (Sched.spawn sched (fun tid -> body ~tid)));
    spawn_aux =
      (fun body -> ignore (Sched.spawn_service sched (fun _ -> body ())));
    launch = (fun () -> Sched.run ~horizon sched);
    now = Hooks.now;
    wait = Hooks.step;
    worker_running = (fun () -> true);
    aux_running = (fun () -> true);
    worker_tick = (fun ~tid:_ -> true);
    (* Eject first, then signal: the fiber cannot dereference before
       its next resumption, where the scheduler delivers [Neutralized]
       ahead of any further step (see the soundness note in Sched). *)
    neutralize =
      (fun ~eject ~tid ->
        eject ();
        Sched.neutralize sched tid);
    makespan = (fun () -> min (Sched.makespan sched) horizon);
    publish_crashes = (fun () -> Sched.publish_crashes sched);
  }

let domains_caps : Runner_intf.capabilities =
  { crash_faults = false; neutralize = true; probes = false }

(* Sleep [n] microseconds.  Short waits spin on the monotonic clock:
   at this scale a nanosleep round-trip costs more than it waits. *)
let wait_us n =
  if n > 0 then begin
    if n < 50 then begin
      let until = Monotonic.now_ns () + (n * 1000) in
      while Monotonic.now_ns () < until do Domain.cpu_relax () done
    end
    else Unix.sleepf (float_of_int n /. 1e6)
  end

let domains_exec ~threads ~duration_s ~seed ~faults () : Runner_intf.exec =
  let duration_us = int_of_float (duration_s *. 1e6) in
  let workers : (unit -> unit) list ref = ref [] in
  let auxes : (unit -> unit) list ref = ref [] in
  let next_tid = ref 0 in
  let aux_stop = Atomic.make false in
  let start_ns = ref 0 in
  let end_ns = ref 0 in
  let now () = (Monotonic.now_ns () - !start_ns) / 1000 in
  let worker_running () = now () < duration_us in
  (* Per-worker op counters and fault PRNGs for [worker_tick].  Each
     counter is a plain ref that only its worker writes, on cache
     lines of its own; the PRNG seed is decorrelated from the workload
     stream. *)
  let ticks = Array.init (max threads 1) (fun _ -> Padded.copy (ref 0)) in
  let fault_rngs =
    Array.init (max threads 1) (fun i ->
      Rng.stream ~seed:(seed lxor 0x57a11) ~index:i)
  in
  let worker_tick ~tid =
    let r = ticks.(tid) in
    let c = !r + 1 in
    r := c;
    if c land 63 <> 0 then true
    else begin
      (* Clock check and fault draw every 64 ops, keeping the
         syscall off the per-operation hot path (the old runner's
         batch=64 deadline check). *)
      (match (faults : Runner_intf.faults) with
       | Stall_storm { stall_prob; stall_len }
       | Stall_neutralize { stall_prob; stall_len; _ } ->
         if Rng.chance fault_rngs.(tid) stall_prob then wait_us stall_len
       | _ -> ());
      worker_running ()
    end
  in
  (* Neutralization rails: one flag per worker slot, raised by the
     watchdog and drained by the victim itself at its next guard-path
     poll ([Hooks.poll_neutralize] inside [Prim.read]) while its
     restart window is open.  Delivery is signal-only on this backend:
     an external eject could race a dereference the victim is already
     committed to, so the victim expires its own reservations inside
     [recover] after the raise.  Only stall+neutralize raises rails;
     every other profile installs no handler, so the workers' hooks
     stay on their dispatch-free path. *)
  let rails_armed =
    match (faults : Runner_intf.faults) with
    | Stall_neutralize _ -> true
    | _ -> false
  in
  let rails = Array.init (max threads 1) (fun _ -> Atomic.make false) in
  (* Per-domain handler: track the restart window locally (no other
     thread reads it) and poll the rail. *)
  let rail_handler tid =
    let win = ref false in
    { Hooks.default with
      restart_window =
        (fun open_ ->
          let prev = !win in
          win := open_;
          prev);
      poll_neutralize =
        (fun () ->
          if !win && Atomic.get rails.(tid) then begin
            Atomic.set rails.(tid) false;
            raise Hooks.Neutralized
          end) }
  in
  {
    backend = "domains";
    caps = { domains_caps with neutralize = rails_armed };
    spawn =
      (fun body ->
        let tid = !next_tid in
        incr next_tid;
        workers :=
          (fun () ->
            if rails_armed then
              Hooks.with_handler (rail_handler tid) (fun () -> body ~tid)
            else body ~tid)
          :: !workers);
    spawn_aux = (fun body -> auxes := body :: !auxes);
    launch =
      (fun () ->
        start_ns := Monotonic.now_ns ();
        let ws = List.rev_map Domain.spawn (List.rev !workers) in
        let axs = List.rev_map Domain.spawn (List.rev !auxes) in
        List.iter Domain.join ws;
        Atomic.set aux_stop true;
        List.iter Domain.join axs;
        end_ns := Monotonic.now_ns ());
    now;
    wait = wait_us;
    worker_running;
    aux_running = (fun () -> not (Atomic.get aux_stop));
    worker_tick;
    neutralize = (fun ~eject:_ ~tid -> Atomic.set rails.(tid) true);
    makespan = (fun () -> (!end_ns - !start_ns) / 1000);
    (* Honest no-op: crash profiles raise [Unsupported] on this
       backend, so the gauge's absence cannot be mistaken for a
       zero-crash measurement. *)
    publish_crashes = (fun () -> ());
  }

(* -- the shared run loop -- *)

(* Fail fast when the mix draws on a capability the rideable does not
   export, naming the rideables that could run it instead. *)
let check_caps ~ds_name (module S : Ds_intf.RIDEABLE) (mix : Workload.mix) =
  let need = Workload.required mix in
  let have = Ds_intf.caps_of (module S) in
  if not (Ds_intf.subsumes have need) then begin
    let missing =
      {
        Ds_intf.map = need.map && not have.map;
        queue = need.queue && not have.queue;
        range = need.range && not have.range;
        bulk = need.bulk && not have.bulk;
      }
    in
    let capable =
      match Ds_registry.supporting need with
      | [] -> "none"
      | ms -> String.concat ", " (List.map (fun m -> m.Ds_registry.ds_name) ms)
    in
    invalid_arg
      (Printf.sprintf
         "Run_engine: rideable %S lacks capability %s needed by mix %S \
          (capable rideables: %s)"
         ds_name
         (Ds_intf.caps_to_string missing)
         (Workload.mix_name mix) capable)
  end

(* The capability records are resolved once, when the dispatch is
   built; [check_caps] guarantees every op the mix can draw has its
   record.  Building the dispatch once keeps the per-operation call
   free of closures and boxes. *)
let dispatch (type h) (module S : Ds_intf.RIDEABLE with type handle = h)
    (spec : Workload.spec) =
  let mops = S.map and qops = S.queue and rops = S.range and bops = S.bulk in
  fun h (op : Workload.op) key ->
    match
      match op with
      | Insert -> ignore ((Option.get mops).Ds_intf.insert h ~key ~value:key)
      | Remove -> ignore ((Option.get mops).Ds_intf.remove h ~key)
      | Get -> ignore ((Option.get mops).Ds_intf.get h ~key)
      | Scan ->
        ignore
          ((Option.get rops).Ds_intf.range h ~lo:key
             ~hi:(Workload.scan_hi spec key))
      | Enqueue -> (Option.get qops).Ds_intf.enqueue h key
      | Dequeue -> ignore ((Option.get qops).Ds_intf.dequeue h)
      | Migrate -> ignore ((Option.get bops).Ds_intf.migrate h)
    with
    | () -> true
    | exception
        ( Ibr_core.Alloc.Exhausted
        | Ibr_core.Fault.Memory_fault (Ibr_core.Fault.Alloc_exhausted, _) ) ->
      (* Heap full after the backpressure ladder: the op aborted (its
         reservations were released on unwind); the worker keeps
         going, since later sweeps may free room. *)
      false

let rec park (exec : Runner_intf.exec) =
  exec.wait 4096;
  if exec.worker_running () then park exec

type 'h driver = {
  prefill : ('h -> unit) -> unit;
  spawn_workers : ('h -> Workload.op -> int -> bool) -> unit;
  active : int -> bool;
  progress : int -> int;
  occupant : int -> int;
}

type outcome = { makespan : int; baseline : Ibr_obs.Metrics.baseline }

let drive (type t h) ~(exec : Runner_intf.exec) ~ds_name
    (module S : Ds_intf.RIDEABLE with type t = t and type handle = h)
    (cfg : config) ~watchdog (driver : t -> h driver) =
  Runner_intf.require exec cfg.faults;
  Runner_intf.require_probes exec;
  check_caps ~ds_name (module S) cfg.spec.mix;
  let t = S.create ~threads:cfg.threads cfg.tracker_cfg in
  let d = driver t in
  (* Prefill outside the measured run, through the driver's handle:
     through the map when there is one (byte-identical to the
     historical prefill), else by enqueueing the selected keys. *)
  d.prefill (fun h0 ->
    let insert =
      match S.map, S.queue with
      | Some m, _ -> fun ~key ~value -> m.Ds_intf.insert h0 ~key ~value
      | None, Some q ->
        fun ~key ~value:_ ->
          q.Ds_intf.enqueue h0 key;
          true
      | None, None -> fun ~key:_ ~value:_ -> false
    in
    Workload.prefill ~rng:(Rng.create (cfg.seed lxor 0x5eed)) ~spec:cfg.spec
      ~insert);
  (* The capacity can only be sized now: the working set exists. *)
  (match cfg.faults with
   | Crash_capped { slack_per_thread; _ } ->
     let st = S.allocator_stats t in
     S.set_capacity t (Some (st.live + (cfg.threads * slack_per_thread)))
   | _ -> ());
  d.spawn_workers (dispatch (module S) cfg.spec);
  (* The background reclaimer (tracker cfg [background_reclaim]) rides
     as one more service thread: it drains the handoff queues and runs
     the sweep cadence on its own time budget, off the mutators'
     critical path.  An idle poll still waits — on the sim the step is
     both the livelock guard and the polling period. *)
  let service = S.reclaim_service t in
  (match service with
   | Some svc ->
     exec.spawn_aux (fun () ->
       let idle_poll = 128 in
       let rec loop () =
         if exec.aux_running () then begin
           if svc.Ibr_core.Handoff.drain () = 0 then exec.wait idle_poll;
           loop ()
         end
       in
       loop ())
   | None -> ());
  (* The watchdog rides as one more service thread, reading the
     driver's census view.  It judges census slots; the restart signal
     goes to the worker occupying the slot whose reservations it
     expires. *)
  let watchdog =
    Option.map
      (fun (period, grace, neutralize) ->
         let remedy =
           if neutralize then
             Watchdog.Neutralize
               (fun slot ->
                  exec.neutralize
                    ~eject:(fun () -> S.eject t ~tid:slot)
                    ~tid:(d.occupant slot))
           else Watchdog.Eject
         in
         Watchdog.spawn ~exec ~period ~grace ~threads:cfg.threads ~remedy
           ~active:d.active ~progress:d.progress
           ~eject:(fun tid -> S.eject t ~tid)
           ())
      watchdog
  in
  (* Prefill replacements may have queued retirements; drain them now
     so the measured phase starts with empty queues and the shutdown
     invariant (drained = pushed within the run) is exact. *)
  (match service with
   | Some svc -> ignore (svc.Ibr_core.Handoff.drain ())
   | None -> ());
  (* Baseline the registry counters at the edge of the measured phase
     (gauges and histograms are zeroed here too). *)
  let baseline = Ibr_obs.Metrics.begin_run () in
  exec.launch ();
  (* Shutdown quiescence: every worker has unwound/crashed/joined, so
     one final flush moves still-queued blocks (including the batch
     buffers of departed producers) into the reclaimer and sweeps.  A
     crash that abandoned a fiber mid-drain leaves the handoff lock
     held; the run is exclusive again, so seizing it is sound. *)
  (match service with
   | Some svc -> svc.Ibr_core.Handoff.shutdown_flush ()
   | None -> ());
  (* Publish the instance-scoped gauges. *)
  Ibr_core.Alloc.publish_stats (S.allocator_stats t);
  Ibr_core.Epoch.publish (S.epoch_value t);
  exec.publish_crashes ();
  Option.iter Watchdog.publish watchdog;
  { makespan = exec.makespan (); baseline }

(* -- the closed-loop driver -- *)

(* One worker's completed and aborted operations. *)
type counts = { mutable ops : int; mutable aborted : int }

let run ~(exec : Runner_intf.exec) ~tracker_name ~ds_name
    (module S : Ds_intf.RIDEABLE) (cfg : config) =
  (* Each worker writes its counters and its sampler on every
     operation, so each sits on cache lines of its own. *)
  let counts =
    Array.init cfg.threads (fun _ -> Padded.copy { ops = 0; aborted = 0 })
  in
  let samplers =
    Array.init cfg.threads (fun _ -> Padded.copy (Stats.make_sampler ()))
  in
  let closed_loop t =
    {
      (* Slot 0 prefills; the measured phase begins at the workers'
         registrations. *)
      prefill = (fun fill -> fill (S.register t ~tid:0));
      spawn_workers =
        (fun perform ->
           for _ = 0 to cfg.threads - 1 do
             exec.spawn (fun ~tid ->
               let h = S.register t ~tid in
               let rng = Rng.stream ~seed:cfg.seed ~index:tid in
               let c = counts.(tid) and sampler = samplers.(tid) in
               (* Runs until the scheduler unwinds it at the horizon
                  (sim) or [worker_tick] reports the wall deadline
                  (domains). *)
               let rec loop () =
                 Stats.sample sampler (S.retired_count h);
                 let key = Workload.pick_key rng cfg.spec in
                 let op = Workload.pick_op rng cfg.spec.mix in
                 if perform h op key then c.ops <- c.ops + 1
                 else c.aborted <- c.aborted + 1;
                 match cfg.faults with
                 | Stall_watchdog _ when tid = 0 ->
                   (* The victim parks between operations, holding no
                      reservation, so ejecting it is sound by
                      construction (the profile tests detection, not
                      rescue). *)
                   park exec
                 | _ -> if exec.worker_tick ~tid then loop ()
               in
               loop ())
           done);
      active = (fun _ -> true);
      (* Progress = attempts, not completions, so a live thread stuck
         aborting against a full heap is not mistaken for a dead one. *)
      progress = (fun tid -> counts.(tid).ops + counts.(tid).aborted);
      (* Worker [tid] registers slot [tid] for the whole run. *)
      occupant = Fun.id;
    }
  in
  let watchdog =
    match cfg.faults with
    | Crash_watchdog { period; grace; _ } | Stall_watchdog { period; grace }
      ->
      Some (period, grace, false)
    | Stall_neutralize { period; grace; _ } -> Some (period, grace, true)
    | _ -> None
  in
  let o =
    drive ~exec ~ds_name (module S) cfg ~watchdog closed_loop
  in
  let total_ops = Array.fold_left (fun n c -> n + c.ops) 0 counts in
  let merged = Stats.merge_samplers (Array.to_list samplers) in
  {
    Stats.tracker = tracker_name;
    ds = ds_name;
    threads = cfg.threads;
    mix = Workload.mix_name cfg.spec.mix;
    backend = exec.backend;
    ops = total_ops;
    makespan = o.makespan;
    throughput = Stats.throughput ~ops:total_ops ~makespan:o.makespan;
    avg_unreclaimed = Stats.mean merged;
    peak_unreclaimed = merged.peak;
    samples = merged.n;
    metrics = Ibr_obs.Metrics.collect o.baseline;
  }

let resolve ~tracker_name ~ds_name =
  let tracker = (Ibr_core.Registry.find_exn tracker_name).tracker in
  let m = (Ds_registry.find_exn ds_name).instantiate tracker in
  let (module S : Ds_intf.RIDEABLE) = m in
  let (module T : Ibr_core.Tracker_intf.TRACKER) = tracker in
  if S.compatible T.props then Some (T.name, m) else None
