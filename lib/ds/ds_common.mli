(** The operation wrapper shared by all structures: restart counting
    and the §4.3.1 starvation bound (reservation refresh after
    [max_cas_failures] lost CASes). *)

exception Restart
(** Raised by a data-structure method when a CAS loses a race and the
    traversal must begin again. *)

type op_stats = {
  mutable ops : int;
  mutable restarts : int;
  mutable reservation_refreshes : int;
  mutable neutralizations : int;
}

val make_op_stats : unit -> op_stats

val check_slots :
  rideable:string -> slots_needed:int -> Ibr_core.Tracker_intf.packed ->
  Ibr_core.Tracker_intf.config -> unit
(** Every rideable's [create] calls this first.
    @raise Invalid_argument naming both numbers when the scheme has
    per-pointer reservations ([bounded_slots]) and [cfg.slots] is
    below [slots_needed]. *)

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
  stats:op_stats -> start_op:(unit -> unit) -> end_op:(unit -> unit) ->
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

val retire_trace : (string -> int -> int -> unit) ref
(** Debug hook invoked before every retire a data structure performs,
    with (site, block id, incarnation).  A no-op in production. *)

val unlink_trace : (string -> Obj.t -> Obj.t -> int -> int -> unit) ref
(** Companion debug hook passing the raw prev cell and expected box. *)
