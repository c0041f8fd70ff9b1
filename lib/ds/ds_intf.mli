(** Capability-based interface of the benchmark data structures
    ("rideables").

    The core {!RIDEABLE} signature carries everything tracker-facing —
    lifecycle, census churn, observability, fault hooks — and the
    operation families ride as optional capability records
    ({!map_ops}, {!queue_ops}, {!range_ops}, {!bulk_ops}), each
    exposed as an [option] so the workload driver, the model-based
    tests, and the figure harness select operations by capability
    instead of assuming a map. *)

open Ibr_core

type caps = {
  map : bool;  (** keyed insert/remove/get/contains *)
  queue : bool;  (** enqueue/dequeue (FIFO or LIFO) *)
  range : bool;  (** bounded ordered scans *)
  bulk : bool;  (** operations that retire whole arrays *)
}

val no_caps : caps

val caps_to_string : caps -> string
(** ["map+range"]-style summary; ["-"] when no capability is set. *)

(** Keyed-map operations.  Each call is one application operation: it
    brackets itself in start_op/end_op and restarts with a fresh
    reservation after [max_cas_failures] failed CASes (§4.3.1).
    [to_sorted_list] is a sequential-context helper (quiescent
    structure only). *)
type ('t, 'h) map_ops = {
  insert : 'h -> key:int -> value:int -> bool;
  remove : 'h -> key:int -> bool;
  get : 'h -> key:int -> int option;
  contains : 'h -> key:int -> bool;
  to_sorted_list : 't -> (int * int) list;
}

(** The discipline a {!queue_ops} structure honors, so oracles know
    what sequence to check. *)
type order = Fifo | Lifo

(** Producer/consumer operations.  [to_seq_list] dumps front-first
    (next-out first), sequential context only. *)
type ('t, 'h) queue_ops = {
  enqueue : 'h -> int -> unit;
  dequeue : 'h -> int option;
  peek : 'h -> int option;
  order : order;
  to_seq_list : 't -> int list;
}

(** Bounded ordered scan: every (key, value) with [lo <= key <= hi],
    ascending, linearized at some point during the call.  Scans hold
    their reservation across the whole traversal — the long reader
    interval that is the interval family's worst case. *)
type 'h range_ops = { range : 'h -> lo:int -> hi:int -> (int * int) list }

(** Bulk retirement: [migrate] forces one structural migration that
    retires a whole backing array through the tracker (returns [false]
    when the structure is already at its growth cap); [table_length]
    reports the current backing-array length, sequential context. *)
type ('t, 'h) bulk_ops = {
  migrate : 'h -> bool;
  table_length : 't -> int;
}

module type RIDEABLE = sig
  val name : string

  val compatible : Tracker_intf.properties -> bool
  (** Whether this structure can run under a scheme with the given
      properties (e.g. the Bonsai tree excludes HP/HE because
      rebalancing needs unboundedly many reservations — the same
      exclusion as the paper's Fig. 8d). *)

  val slots_needed : int

  type t
  type handle

  val create : threads:int -> Tracker_intf.config -> t
  val register : t -> tid:int -> handle

  val attach : t -> handle option
  (** Dynamic thread churn (DESIGN.md §10): claim a free census slot,
      or [None] when every slot is taken.  Do not mix with the
      fixed-census [register] on the same instance. *)

  val detach : handle -> unit
  (** Release an [attach]ed handle; the caller must be between
      operations.  The handle must not be used afterwards. *)

  val handle_tid : handle -> int
  (** The census slot this handle occupies. *)

  (** Observability for the harness and tests. *)

  val retired_count : handle -> int
  val force_empty : handle -> unit
  val allocator_stats : t -> Alloc.stats
  val epoch_value : t -> int

  val reclaim_service : t -> Handoff.service option
  (** The underlying tracker's background-reclaim service, when the
      tracker was created with [background_reclaim = true]; the runner
      drives it from a dedicated fiber/domain.  [None] when background
      reclamation is off or the scheme has no deferred work. *)

  (** Fault-injection hooks (see DESIGN.md §7). *)

  val set_capacity : t -> int option -> unit
  (** Cap (or uncap) the underlying allocator's live+retired
      footprint; see {!Alloc.set_capacity}. *)

  val eject : t -> tid:int -> unit
  (** Expire thread [tid]'s reservations.  Sound only for a dead
      thread; see {!Tracker_intf.TRACKER.eject}. *)

  val check_invariants : t -> unit
  (** Sequential-context structural check (quiescent structure
      only). *)

  (** The capability surface: [None] = the structure cannot express
      the operation family, and the registry advertises the absence. *)

  val map : (t, handle) map_ops option
  val queue : (t, handle) queue_ops option
  val range : handle range_ops option
  val bulk : (t, handle) bulk_ops option
end

val caps_of : (module RIDEABLE) -> caps
(** Capability flags derived from the module's exports; the registry
    derives each maker's flags with it. *)

val subsumes : caps -> caps -> bool
(** [subsumes have need]: every capability [need] asks for, [have]
    provides. *)
