(** The retirement store: the per-thread retired blocks, the
    [empty_freq] countdown, and the sweep invocation that every
    tracker used to hand-roll, extracted into one layer.

    A tracker builds one [t] per handle, passing its conflict source
    as closures; {!add} records a retirement and runs the countdown.
    The store is epoch-bucketed limbo lists, sorted by retire epoch,
    and a sweep is one walk over them that looks into a bucket only
    to test its blocks one by one.  A sweep frees exactly the blocks
    {!survives} rejects. *)

(** A sweep's conflict test.  Buckets retired before [below] free
    whole, unexamined.  A bucket at or above it stays whole when
    [keep] is [None] (the epoch family: EBR, DEBRA, DEBRA+, QSBR,
    Fraser), and is otherwise tested block by block: {!intervals} for
    HE, POIBR, the TagIBR family and 2GEIBR; HP's hazard set with
    [below = min_int]. *)
type 'a test = {
  below : int;
  keep : ('a Block.t -> bool) option;
}

val survives : 'a test -> 'a Block.t -> bool
(** What a sweep keeps: a block retired at or after [below] that
    [keep], when present, holds. *)

val intervals : Tracker_common.Sweep_snapshot.t -> 'a test
(** A block survives iff some reserved interval intersects its
    lifetime; the bound is the smallest reserved lower endpoint. *)

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
