(** What every rideable shares: the operation wrapper — restart
    counting and the §4.3.1 starvation bound (reservation refresh
    after [max_cas_failures] lost CASes) — and {!Lifecycle}, the
    plumbing between a structure and its tracker. *)

open Ibr_core

exception Restart
(** Raised by a data-structure method when a CAS loses a race and the
    traversal must begin again. *)

val committed : (unit -> 'a) -> 'a
(** Mask the caller's restart window across [f] (DESIGN.md §12): a
    neutralization signal delivered meanwhile stays pending instead
    of unwinding [f].  Data structures wrap every linearizing CAS and
    the remainder of the operation after it in this bracket — once
    the operation has logically happened, restarting would apply it
    twice.  Masked code must not perform guarded dereferences
    ([Block.get]). *)

val max_cas_failures : int
(** Consecutive restarts after which {!with_op} refreshes the
    reservation: 128. *)

val with_op :
  start_op:(unit -> unit) -> end_op:(unit -> unit) ->
  on_neutralize:(unit -> unit) -> (unit -> 'a) -> 'a
(** Run one application operation, re-entering [f] on {!Restart} and
    dropping/re-acquiring the reservation after {!max_cas_failures}
    consecutive restarts.  [end_op] runs on both normal and
    exceptional exit.

    [f] runs with the restart window open: {!Fault.Neutralized}
    delivered inside it unwinds the attempt, [on_neutralize] runs
    (pass the tracker's [recover] for the operating handle — it must
    drop {e and re-establish} protection), and the attempt retries
    from scratch.  Restartability up to the first linearization point
    is [f]'s obligation; from there on it must mask with
    {!committed}.

    The bracket itself allocates nothing: pass [start_op], [end_op]
    and [on_neutralize] closures built once per handle, so that [f]
    is an operation's only allocation here (DESIGN.md §1a). *)

(** A rideable's handle: the structure, its tracker handle, and the
    operation bracket's tracker calls ([T.start_op], [T.end_op],
    [T.recover] on [th]) as closures built once per handle.  A
    rideable opens this module for the field names. *)
type ('s, 'th) handle = {
  ds : 's;
  th : 'th;
  start_op : unit -> unit;
  end_op : unit -> unit;
  recover : unit -> unit;
}

val wrap : ('s, 'th) handle -> (unit -> 'a) -> 'a
(** One operation on [h]: {!with_op} over the handle's closures.
    Top-level rather than in {!Lifecycle}, so that a call of it can
    inline into a direct call of {!with_op} (DESIGN.md §13e). *)

(** The lifecycle every rideable shares, written once: the handle,
    creating the tracker, census churn, the observability and
    fault-injection hooks of {!Ds_intf.RIDEABLE}, and the bracket of
    a sequential dump.  A rideable includes it and states only its
    nodes and operations (DESIGN.md §13e). *)
module Lifecycle
    (T : Tracker_intf.TRACKER)
    (S : sig
       type node  (* the tracker's payload *)
       type t
       val name : string
       val slots_needed : int
       val tracker : t -> node T.t
     end) : sig
  type nonrec handle = (S.t, S.node T.handle) handle

  val create_tracker : threads:int -> Tracker_intf.config -> S.node T.t
  (** [T.create], after checking the reservation-slot budget.
      @raise Invalid_argument naming both numbers when the scheme has
      per-pointer reservations ([bounded_slots]) and [cfg.slots] is
      below [S.slots_needed]. *)

  val register : S.t -> tid:int -> handle
  val attach : S.t -> handle option
  val detach : handle -> unit
  val handle_tid : handle -> int
  val retired_count : handle -> int
  val force_empty : handle -> unit
  val allocator_stats : S.t -> Alloc.stats
  val reclaim_service : S.t -> Handoff.service option
  val epoch_value : S.t -> int
  val set_capacity : S.t -> int option -> unit
  val eject : S.t -> tid:int -> unit

  val sequential : S.node T.t -> (S.node T.handle -> 'a) -> 'a
  (** [sequential tracker f] runs [f] on slot 0's handle
      ([T.register ~tid:0]) between one [T.start_op] and [T.end_op]:
      the bracket of a dump or an invariant check (quiescent structure
      only). *)
end
