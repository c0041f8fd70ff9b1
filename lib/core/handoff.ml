(* Off-critical-path reclamation: per-thread handoff queues in front
   of one service-owned [Reclaimer] (DEBRA's decoupling of retirement
   from reclamation; see DESIGN.md §9).

   Mutator [retire] becomes a single CAS append onto the caller's own
   queue segment; a dedicated reclaimer thread (a fiber under the
   simulator, a domain on the real backend) drains all segments with
   take-all exchanges and runs the sweep cadence on its own budget, so
   the O(retired) sweep cost leaves the mutators' critical path.

   Each segment is single-producer: only thread [tid] pushes to
   [queues.(tid)], so a producer's CAS can fail only against the
   consumer's exchange and retries at most once per drain.  Drains are
   serialised by a spin lock because two paths reach them — the
   service loop, and the synchronous fallback a mutator takes under
   allocator backpressure (the robustness bounds of DESIGN.md §7 must
   not depend on the service thread being scheduled).  The fallback
   uses [try_lock]: if the service is already mid-drain, the mutator's
   backoff ladder simply yields to it.

   Every sweep of the service's reclaimer runs under that lock: the
   drain cadence, the pressure fallback and the shutdown flush.  No
   other thread may sweep it — a mutator's [force_empty] on a queued
   path sweeps nothing — or two threads would condemn, and free, the
   same blocks. *)

type 'a t = {
  queues : 'a Block.t list Atomic.t array;
  pushed : int ref array;    (* per queue; written by its producer *)
  drained : int array;       (* per queue; written under [lock] *)
  rc : 'a Reclaimer.t;       (* service-owned; sweeps run here *)
  lock : bool Atomic.t;      (* serialises drain vs. sync fallback *)
}

(* Global handoff telemetry (atomics: the domains backend pushes and
   drains in parallel), surfaced as read-backed registry counters like
   [Tracker_common.Sweep_stats].  The quiescence test leans on
   pushed = drained after a shutdown flush. *)
module Stats = struct
  let pushed = Atomic.make 0      (* blocks appended to a queue *)
  let drained = Atomic.make 0     (* blocks moved into the reclaimer *)
  let batches = Atomic.make 0     (* non-empty drain batches *)
  let syncs = Atomic.make 0       (* synchronous fallback drains *)

  let reset () =
    Atomic.set pushed 0;
    Atomic.set drained 0;
    Atomic.set batches 0;
    Atomic.set syncs 0

  let () =
    let reg name order a =
      Ibr_obs.Metrics.register_counter ~name ~order (fun () -> Atomic.get a)
    in
    reg "handoff_pushed" 470 pushed;
    reg "handoff_drained" 475 drained;
    reg "handoff_batches" 480 batches;
    reg "handoff_syncs" 485 syncs
end

let create ~producers rc =
  { queues = Array.init producers (fun _ -> Atomic.make []);
    (* Each producer bumps its own count on every push. *)
    pushed = Array.init producers (fun _ -> Ibr_runtime.Padded.copy (ref 0));
    drained = Array.make producers 0;
    rc;
    lock = Atomic.make false }

(* Blocks queued but not yet handed to the reclaimer: one subtraction
   per producer, never a walk of the queues.  Both counts move with no
   preemption point between them and the queue operation they count,
   so on the simulator this is exact at every step; on Domains it is a
   racy read, exact once producers quiesce. *)
let queued t =
  let n = ref 0 in
  for i = 0 to Array.length t.queues - 1 do
    n := !n + !(t.pushed.(i)) - t.drained.(i)
  done;
  max 0 !n

let push t ~tid b =
  let q = t.queues.(tid) in
  let rec loop () =
    let cur = Atomic.get q in
    let ok = Atomic.compare_and_set q cur (b :: cur) in
    (* Count before the cost charge: the charge's step can unwind the
       fiber at the horizon, and a queued-but-uncounted block would
       break the shutdown invariant (drained = pushed). *)
    if ok then begin
      incr t.pushed.(tid);
      Atomic.incr Stats.pushed;
      Ibr_obs.Probe.handoff ~block:(Block.id b)
    end;
    Prim.charge_cas ~ok;
    if not ok then loop ()
  in
  loop ()

(* -- drains (caller must hold [lock]) -- *)

let drain_locked t =
  let n = ref 0 in
  Array.iteri
    (fun i q ->
       match Atomic.exchange q [] with
       | [] -> ()
       | batch ->
         (* Count at the exchange, before any cost charge: a drain
            "removes from the queues", and the reclaimer adds below
            step — at the horizon one could unwind the fiber with the
            batch already taken, which must not leave the counters
            claiming the blocks are still queued. *)
         let k = List.length batch in
         n := !n + k;
         t.drained.(i) <- t.drained.(i) + k;
         ignore (Atomic.fetch_and_add Stats.drained k);
         Ibr_obs.Probe.drain ~drained:k;
         Prim.local 1;
         (* Reverse to retirement order so the reclaimer's epoch
            buckets see monotone retire epochs (O(1) head inserts). *)
         List.iter (fun b -> Reclaimer.add t.rc b) (List.rev batch))
    t.queues;
  if !n > 0 then Atomic.incr Stats.batches;
  !n

let unlock t = Atomic.set t.lock false

let with_lock t f =
  (* Spin with a stepped backoff: under the simulator the step is the
     preemption point that lets the lock holder run. *)
  while not (Prim.cas t.lock false true) do
    Ibr_runtime.Hooks.step 8
  done;
  Fun.protect ~finally:(fun () -> unlock t) f

let drain t = with_lock t (fun () -> drain_locked t)

(* Synchronous fallback under allocator backpressure: drain whatever
   is queued and sweep on the spot, unless the service is already
   mid-drain (then its sweep is the rescue and the caller's backoff
   ladder yields to it). *)
let pressure t =
  Atomic.incr Stats.syncs;
  if Prim.cas t.lock false true then
    Fun.protect ~finally:(fun () -> unlock t)
      (fun () ->
         ignore (drain_locked t);
         Reclaimer.sweep t.rc)

(* Shutdown: move everything queued into the reclaimer and sweep.
   The drain loop tolerates a straggling producer's push. *)
let flush t =
  with_lock t (fun () ->
    while drain_locked t > 0 do () done;
    Reclaimer.sweep t.rc)

(* Post-run flush: the machine is single-threaded again (every fiber
   unwound or crashed), so a lock abandoned by a crash mid-drain can
   be seized rather than spun on — spinning would hang, since no other
   thread exists to release it. *)
let shutdown_flush t =
  Atomic.set t.lock false;
  flush t

(* Monomorphic closure record so runners and data structures can hold
   the service without a type parameter. *)
type service = {
  drain : unit -> int;
  flush : unit -> unit;
  shutdown_flush : unit -> unit;
  pending : unit -> int;
}

let service t = {
  drain = (fun () -> drain t);
  flush = (fun () -> flush t);
  shutdown_flush = (fun () -> shutdown_flush t);
  pending = (fun () -> queued t + Reclaimer.count t.rc);
}

(* -- retirement path: what a tracker handle retires into -- *)

type 'a path =
  | Direct of 'a Reclaimer.t   (* inline: per-handle reclaimer *)
  | Queued of 'a t             (* handoff to the service reclaimer *)

let path_reclaimer = function Direct rc -> rc | Queued h -> h.rc

let path_add p ~tid b =
  if Ibr_obs.Probe.hist_enabled () then begin
    let t0 = Ibr_runtime.Hooks.now () in
    (match p with
     | Direct rc -> Reclaimer.add rc b
     | Queued h -> push h ~tid b);
    Ibr_obs.Probe.note_retire_cost (Ibr_runtime.Hooks.now () - t0)
  end
  else
    match p with
    | Direct rc -> Reclaimer.add rc b
    | Queued h -> push h ~tid b

let path_count = function
  | Direct rc -> Reclaimer.count rc
  | Queued h -> queued h + Reclaimer.count h.rc

let path_pressure = function
  | Direct rc -> Reclaimer.sweep rc
  | Queued h -> pressure h
