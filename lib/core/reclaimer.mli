(** The retirement store: the per-thread retired blocks, the
    [empty_freq] countdown, and the sweep invocation that every
    tracker used to hand-roll, extracted into one layer.

    A tracker builds one [t] per handle, passing its conflict source
    as closures; {!add} records a retirement and runs the countdown.
    The store is epoch-bucketed limbo lists, sorted by retire epoch.
    A [Threshold] conflict frees/keeps whole buckets without touching
    their blocks — O(freed + buckets) rather than O(retired); an
    [Intervals] conflict frees wholesale every bucket below the
    smallest reserved lower endpoint, then tests the rest per block.
    A sweep frees exactly the blocks its conflict test rejects. *)

(** A sweep's conflict test: a structured {!Tracker_common.Conflict.t}
    (which the bucket walk exploits for wholesale decisions) or an
    opaque predicate (HP's hazard set) that forces per-block
    examination.  Either way a block is kept iff the test reports a
    conflict. *)
type 'a test =
  | Shape of Tracker_common.Conflict.t
  | Predicate of ('a Block.t -> bool)

type 'a t

val create :
  empty_freq:int ->
  ?prepare:(unit -> unit) ->
  source:(unit -> 'a test) ->
  free:('a Block.t -> unit) ->
  unit ->
  'a t
(** [prepare] runs before every cadence and pressure sweep
    (QSBR/Fraser put their epoch advancement here).  [source] builds
    the conflict test, paying the reservation snapshot; [free]
    releases one block. *)

val add : 'a t -> 'a Block.t -> unit
(** Record a retirement (the block's retire epoch must already be
    set); every [empty_freq] retirements triggers {!sweep}. *)

val sweep : 'a t -> unit
(** Run [prepare], then build the test and sweep the store.  The
    cadence sweep, and the allocator's memory-pressure sweep
    ({!Alloc.set_pressure_hook}: a capped heap must still help the
    epoch forward). *)

val force : 'a t -> unit
(** Sweep now, without [prepare] (callers of [force_empty] do their
    own preparation). *)

val count : 'a t -> int
(** Retired-but-unreclaimed blocks currently held. *)

val total_reclaimed : 'a t -> int

val bucket_count : 'a t -> int
(** Occupied limbo buckets. *)

val drain_all : 'a t -> ('a Block.t -> unit) -> unit
(** Remove {e every} block from the store and hand it to the callback
    — no conflict test.  The
    "free your limbo list on exit without consulting reservations"
    mistake, kept only so the [Ebr.Noflush] demonstration oracle can
    model a broken detach precisely; sound code paths never call
    it. *)
