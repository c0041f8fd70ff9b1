(* What every rideable shares: the operation wrapper, and the
   lifecycle between a structure and its tracker ([Lifecycle] below).

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

open Ibr_core

exception Restart

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
let rec attempt ~start_op ~end_op ~on_neutralize ~guarded f fails =
  match if guarded then with_window true f else f () with
  | result -> result
  | exception Restart ->
    let fails = fails + 1 in
    if fails >= max_cas_failures then begin
      (* Starvation bound: drop and re-acquire the reservation. *)
      end_op ();
      start_op ();
      attempt ~start_op ~end_op ~on_neutralize ~guarded f 0
    end
    else attempt ~start_op ~end_op ~on_neutralize ~guarded f fails
  | exception Ibr_runtime.Hooks.Neutralized ->
    (* The restart signal: recovery re-protects (tracker [recover]
       — NOT a plain [start_op], which would leak the dropped
       state), then the attempt re-runs from scratch.  The fail
       budget resets: a neutralization already refreshed the
       reservation. *)
    on_neutralize ();
    attempt ~start_op ~end_op ~on_neutralize ~guarded f 0

let with_op ~start_op ~end_op ~on_neutralize f =
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
    attempt ~start_op ~end_op ~on_neutralize ~guarded f 0
  with
  | result ->
    Ibr_obs.Probe.op_end ();
    end_op ();
    result
  | exception e ->
    Ibr_obs.Probe.op_end ();
    end_op ();
    raise e

(* A rideable's handle: its structure, its tracker handle, and the
   operation bracket's three tracker calls as closures built once per
   handle (DESIGN.md §1a).  The record and [wrap] are top-level, not
   [Lifecycle]'s: a function that a functor application exports is
   always called through its closure, while a call of [wrap] inlines
   into a direct call of [with_op] wherever the compiler reads this
   module's .cmx (DESIGN.md §13e). *)
type ('s, 'th) handle = {
  ds : 's;
  th : 'th;
  start_op : unit -> unit;
  end_op : unit -> unit;
  recover : unit -> unit;
}

let wrap h f =
  with_op ~start_op:h.start_op ~end_op:h.end_op ~on_neutralize:h.recover f

(* Everything between a structure and its tracker that is not the
   structure's own nodes and operations (DESIGN.md §13e). *)
module Lifecycle
    (T : Tracker_intf.TRACKER)
    (S : sig
       type node
       type t
       val name : string
       val slots_needed : int
       val tracker : t -> node T.t
     end) =
struct
  type nonrec handle = (S.t, S.node T.handle) handle

  (* The reservation-slot budget: a scheme with per-pointer
     reservations (HP, HE) gives each thread [cfg.slots] slots, and the
     structure protects up to [slots_needed] pointers at once.  Too few
     would index past the thread's slot row mid-operation, so refuse at
     creation. *)
  let create_tracker ~threads (cfg : Tracker_intf.config) =
    if T.props.bounded_slots && cfg.slots < S.slots_needed then
      invalid_arg
        (Printf.sprintf
           "%s under %s needs %d reservation slots per thread, but the \
            config has slots = %d"
           S.name T.name S.slots_needed cfg.slots);
    T.create ~threads cfg

  let make_handle ds th =
    { ds; th;
      start_op = (fun () -> T.start_op th);
      end_op = (fun () -> T.end_op th);
      recover = (fun () -> T.recover th) }

  let register ds ~tid = make_handle ds (T.register (S.tracker ds) ~tid)
  let attach ds = Option.map (make_handle ds) (T.attach (S.tracker ds))
  let detach h = T.detach h.th
  let handle_tid h = T.handle_tid h.th

  let retired_count h = T.retired_count h.th
  let force_empty h = T.force_empty h.th
  let allocator_stats t = Alloc.stats (T.allocator (S.tracker t))
  let reclaim_service t = T.reclaim_service (S.tracker t)
  let epoch_value t = T.epoch_value (S.tracker t)
  let set_capacity t cap = Alloc.set_capacity (T.allocator (S.tracker t)) cap
  let eject t ~tid = T.eject (S.tracker t) ~tid

  (* A dump or invariant check of a quiescent structure: slot 0's
     handle, inside one operation bracket.  An exception from [f]
     skips [end_op]; the structure is broken by then anyway. *)
  let sequential tracker f =
    let th = T.register tracker ~tid:0 in
    T.start_op th;
    let r = f th in
    T.end_op th;
    r
end
