(** Memory-fault detection policy.

    In C a use-after-free or double-free is undefined behaviour; in
    this reproduction both are {e defined, detectable events}.  Tests
    run in [Raise] mode; demonstrations of broken schemes run in
    [Count] mode so a run survives to accumulate statistics. *)

type kind =
  | Use_after_free       (** payload accessed after reclamation *)
  | Double_free          (** block reclaimed twice *)
  | Double_retire        (** block retired twice *)
  | Retire_unpublished   (** retire of a block not in the Live state *)
  | Alloc_exhausted      (** capped allocator still at capacity after
                             the backpressure retry budget *)

exception Memory_fault of kind * string

exception Neutralized
(** The DEBRA+ restart signal — the {e same} exception as
    {!Ibr_runtime.Hooks.Neutralized} (rebound, so either name catches
    it), re-exported so reclamation code need not name the runtime
    layer.  Not a memory fault: a neutralized thread drops its
    reservations, re-protects, and retries — see
    [Ds_common.with_op]. *)

type mode = Raise | Count

val set_mode : mode -> unit

val report : kind -> string -> unit
(** Raise or count, per the current mode. *)

val count : kind -> int
val total : unit -> int
val reset : unit -> unit

val all_kinds : kind list

val kind_to_string : kind -> string

val with_counting : (unit -> 'a) -> 'a * int
(** Run in [Count] mode; return the result and the number of faults
    observed during the call.  Restores the previous mode.  If [f]
    raises, the exception propagates — use {!with_counting_result}
    when the tally of a raising run is needed. *)

val with_counting_result : (unit -> 'a) -> ('a, exn) result * int
(** Like {!with_counting} but never loses the tally: a raising [f]
    yields [Error e] alongside the faults it reported before dying. *)
