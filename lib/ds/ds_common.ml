(* The operation wrapper shared by all structures.

   A data-structure method raises [Restart] when a CAS loses a race
   and the traversal must begin again.  The wrapper counts restarts
   and, after [max_cas_failures] of them, ends and re-starts the
   operation at the tracker level — refreshing the reservation's
   lower endpoint.  This is the paper's §4.3.1 fix: without it a
   *starving* (not stalled) thread could reserve an unbounded number
   of blocks.

   The wrapper is also the neutralization checkpoint (DEBRA+,
   DESIGN.md §12).  A watchdog may deliver [Fault.Neutralized] into a
   thread mid-operation; the attempt unwinds to here, [on_neutralize]
   re-establishes protection (the tracker's [recover]: drop
   reservations, flush handoff scratch, re-protect), and the attempt
   retries from scratch — the thread keeps working.

   Delivery is gated on a per-thread *restart window*
   ([Hooks.restart_window]), open exactly while an attempt body runs.
   The window is what makes restart-from-scratch sound: an operation
   that has passed its linearization point but still has charged
   steps left (e.g. Harris remove's unlink-and-retire tail) masks the
   window with [committed], so the signal stays pending and lands at
   the next attempt boundary instead of double-applying the op. *)

exception Restart

type op_stats = {
  mutable ops : int;
  mutable restarts : int;
  mutable reservation_refreshes : int;
  mutable neutralizations : int;
}

let make_op_stats () =
  { ops = 0; restarts = 0; reservation_refreshes = 0; neutralizations = 0 }

(* The reservation-slot budget: a scheme with per-pointer reservations
   (HP, HE) gives each thread [cfg.slots] slots, and a structure
   protects up to [slots_needed] pointers at once.  Too few would index
   past the thread's slot row mid-operation, so refuse at creation. *)
let check_slots ~rideable ~slots_needed
    (module T : Ibr_core.Tracker_intf.TRACKER)
    (cfg : Ibr_core.Tracker_intf.config) =
  if T.props.bounded_slots && cfg.slots < slots_needed then
    invalid_arg
      (Printf.sprintf
         "%s under %s needs %d reservation slots per thread, but the \
          config has slots = %d"
         rideable T.name slots_needed cfg.slots)

(* [Fun.protect] without its closure: restoring the window cannot
   raise. *)
let with_window open_ f =
  let open Ibr_runtime in
  let prev = Hooks.restart_window open_ in
  match f () with
  | r ->
    ignore (Hooks.restart_window prev);
    r
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    ignore (Hooks.restart_window prev);
    Printexc.raise_with_backtrace e bt

(* Mask the caller's restart window across [f]: any neutralization
   signal stays pending rather than unwinding [f].  Data structures
   wrap every linearizing CAS *and the rest of the operation after
   it* in this bracket — once the op has logically happened, a
   restart would apply it twice.  Masked sections must not perform
   guarded dereferences ([Block.get]): a pending signal means the
   thread's reservations may already be expired.  With no handler
   installed the window is the default no-op, so the bracket is
   skipped after one load and branch. *)
let committed f =
  if Ibr_runtime.Hooks.active () then with_window false f else f ()

(* The §4.3.1 starvation bound: consecutive restarts after which an
   operation refreshes its reservation. *)
let max_cas_failures = 128

(* The attempt loop of [with_op]: re-enter [f] on [Restart], and
   after [max_cas_failures] consecutive restarts drop and re-acquire
   the reservation.  A top-level function rather than a closure, so
   an operation's bracket allocates nothing of its own (DESIGN.md
   §1a).  [guarded] opens the restart window for exactly the attempt
   body; [end_op]/[start_op] bookkeeping between attempts runs
   masked. *)
let rec attempt ~stats ~start_op ~end_op ~on_neutralize ~guarded f fails =
  match if guarded then with_window true f else f () with
  | result -> result
  | exception Restart ->
    stats.restarts <- stats.restarts + 1;
    let fails = fails + 1 in
    if fails >= max_cas_failures then begin
      (* Starvation bound: drop and re-acquire the reservation. *)
      end_op ();
      start_op ();
      stats.reservation_refreshes <- stats.reservation_refreshes + 1;
      attempt ~stats ~start_op ~end_op ~on_neutralize ~guarded f 0
    end
    else attempt ~stats ~start_op ~end_op ~on_neutralize ~guarded f fails
  | exception Ibr_runtime.Hooks.Neutralized ->
    (* The restart signal: recovery re-protects (tracker [recover]
       — NOT a plain [start_op], which would leak the dropped
       state), then the attempt re-runs from scratch.  The fail
       budget resets: a neutralization already refreshed the
       reservation. *)
    stats.neutralizations <- stats.neutralizations + 1;
    on_neutralize ();
    attempt ~stats ~start_op ~end_op ~on_neutralize ~guarded f 0

let with_op ~stats ~start_op ~end_op ~on_neutralize f =
  Ibr_obs.Probe.op_begin ();
  let guarded = Ibr_runtime.Hooks.active () in
  (* [op_end] fires before [end_op] on both arms: [end_op] charges
     virtual time, i.e. a preemption point where the horizon can
     unwind the fiber a second time, and the span must already be
     closed by then (probes never step).  For the same reason
     [start_op] sits inside the match, so an unwind during it still
     reaches the closing probe.  Crashed fibers never reach either
     arm: their op span stays open in the trace, which the exporter
     and validator tolerate. *)
  match
    start_op ();
    stats.ops <- stats.ops + 1;
    attempt ~stats ~start_op ~end_op ~on_neutralize ~guarded f 0
  with
  | result ->
    Ibr_obs.Probe.op_end ();
    end_op ();
    result
  | exception e ->
    Ibr_obs.Probe.op_end ();
    end_op ();
    raise e

(* Debug hook: invoked before every retire a data structure performs,
   with (site, block id, incarnation).  Used by fault-diagnosis tests;
   a no-op in production. *)
let retire_trace : (string -> int -> int -> unit) ref = ref (fun _ _ _ -> ())

(* Companion debug hook passing the raw prev cell and expected box. *)
let unlink_trace : (string -> Obj.t -> Obj.t -> int -> int -> unit) ref =
  ref (fun _ _ _ _ _ -> ())
