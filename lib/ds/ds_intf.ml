(* Capability-based interface of the benchmark data structures
   ("rideables").

   The paper's four structures are all key-value maps, but the
   workloads that separate the scheme families are not map-shaped:
   retire-at-head queue churn, wholesale bucket-array retirement, and
   long-interval range scans.  So the rideable surface is split in
   two: a core [RIDEABLE] signature carrying everything tracker-facing
   (lifecycle, census churn, observability, fault hooks), plus
   optional capability records — [map_ops], [queue_ops], [range_ops],
   [bulk_ops] — each exposed as an [option] so the workload driver,
   the model-based tests, and the figure harness select operations by
   capability instead of assuming a map. *)

open Ibr_core

type caps = {
  map : bool;  (* keyed insert/remove/get/contains *)
  queue : bool;  (* enqueue/dequeue (FIFO or LIFO) *)
  range : bool;  (* bounded ordered scans *)
  bulk : bool;  (* operations that retire whole arrays *)
}

let no_caps = { map = false; queue = false; range = false; bulk = false }

let caps_to_string c =
  let flag b name = if b then [ name ] else [] in
  match
    flag c.map "map" @ flag c.queue "queue" @ flag c.range "range"
    @ flag c.bulk "bulk"
  with
  | [] -> "-"
  | l -> String.concat "+" l

(* Keyed-map operations.  Each call is one application operation: it
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

(* Producer/consumer operations.  [order] names the discipline the
   structure honors ([Fifo] for the Michael-Scott queue, [Lifo] for
   the Treiber stack) so oracles know what sequence to check.
   [to_seq_list] dumps front-first (next-out first), sequential
   context only. *)
type order = Fifo | Lifo

type ('t, 'h) queue_ops = {
  enqueue : 'h -> int -> unit;
  dequeue : 'h -> int option;
  peek : 'h -> int option;
  order : order;
  to_seq_list : 't -> int list;
}

(* Bounded ordered scan: every (key, value) with [lo <= key <= hi],
   ascending, linearized at some point during the call.  Scans hold
   their reservation across the whole traversal — the long reader
   interval that is the interval family's worst case. *)
type 'h range_ops = { range : 'h -> lo:int -> hi:int -> (int * int) list }

(* Bulk retirement: [migrate] forces one structural migration that
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
  (* Whether this structure can run under a scheme with the given
     properties (e.g. the Bonsai tree excludes HP/HE because
     rebalancing needs unboundedly many reservations — the same
     exclusion as the paper's Fig. 8d). *)

  val slots_needed : int

  type t
  type handle

  val create : threads:int -> Tracker_intf.config -> t
  val register : t -> tid:int -> handle

  (* Dynamic thread churn (DESIGN.md §10): claim a free census slot /
     release it again.  [attach] returns [None] when every slot is
     taken; [detach]'s caller must be between operations; do not mix
     with fixed-census [register] on the same instance. *)
  val attach : t -> handle option
  val detach : handle -> unit
  val handle_tid : handle -> int

  (* Observability for the harness and tests. *)
  val retired_count : handle -> int
  val force_empty : handle -> unit
  val allocator_stats : t -> Alloc.stats
  val epoch_value : t -> int

  val reclaim_service : t -> Handoff.service option
  (* The underlying tracker's background-reclaim service, when the
     tracker was created with [background_reclaim = true]; the runner
     drives it from a dedicated fiber/domain. *)

  (* Fault-injection hooks (see DESIGN.md §7): cap the underlying
     allocator's footprint, and expire a dead thread's reservations. *)
  val set_capacity : t -> int option -> unit
  val eject : t -> tid:int -> unit

  val check_invariants : t -> unit
  (* Sequential-context structural check (quiescent structure only). *)

  (* The capability surface: [None] = the structure cannot express
     the operation family, and the registry advertises the absence. *)
  val map : (t, handle) map_ops option
  val queue : (t, handle) queue_ops option
  val range : handle range_ops option
  val bulk : (t, handle) bulk_ops option
end

(* Capability flags derived from the module's exports; the registry
   derives each maker's flags with it. *)
let caps_of (module S : RIDEABLE) =
  {
    map = Option.is_some S.map;
    queue = Option.is_some S.queue;
    range = Option.is_some S.range;
    bulk = Option.is_some S.bulk;
  }

(* [subsumes have need]: every capability [need] asks for, [have]
   provides. *)
let subsumes have need =
  (have.map || not need.map)
  && (have.queue || not need.queue)
  && (have.range || not need.range)
  && (have.bulk || not need.bulk)
