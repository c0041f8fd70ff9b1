(** Pieces shared by all trackers: reservation-table snapshots and
    the global sweep telemetry the harness reports.

    The sweep path is the hot loop of every scheme's reclamation: one
    conflict test per retired block.  {!Sweep_snapshot} sorts and
    merges the reservations once per sweep so each block's test is a
    binary search (O(retired x log T)); the linear interval predicate
    survives as {!Interval_res.conflict_with_snapshot}, the
    differential-testing oracle. *)

(** Global sweep telemetry, accumulated by every tracker instance
    (atomics: the domains backend sweeps in parallel) and read as the
    registry counters [sweeps], [sweep_examined], [sweep_freed],
    [sweep_snapshot_entries], [sweep_snapshot_cycles] and
    [sweep_buckets]: a run reports the delta across
    [Ibr_obs.Metrics.begin_run]/[collect]. *)
module Sweep_stats : sig
  val note_sweep : examined:int -> freed:int -> unit
  val note_snapshot : entries:int -> cycles:int -> unit
  val note_buckets : int -> unit
end

val snapshot_reservations : int Atomic.t array -> int array
(** Snapshot a reservation table, charging the cross-thread scan cost
    per entry and recording it in {!Sweep_stats}. *)

(** A once-per-sweep digest of a reservation table: reserved
    intervals, sorted by lower endpoint and merged into disjoint runs,
    so a block's conflict test is one binary search. *)
module Sweep_snapshot : sig
  type t

  val length : t -> int

  val min_lower : t -> int
  (** Smallest reserved lower endpoint ([max_int] when nothing is
      reserved).  A block whose retire epoch precedes it cannot
      conflict with any interval — the bound of
      {!Reclaimer.intervals}. *)

  val of_pairs : int array -> int array -> int -> t
  (** [of_pairs los his n] digests the first [n] (lo, hi) pairs.
      Destructive on the input arrays (sorted in place). *)

  val of_points : none:int -> int array -> t
  (** Build from single-epoch reservations (HE eras, POIBR epochs):
      each reserved value [e] is the degenerate interval [e, e];
      [none] is the scheme's empty-slot sentinel. *)

  val conflict : t -> birth:int -> retire:int -> bool
  (** Is [birth, retire] intersected by any reserved interval?
      O(log T). *)
end

(** Per-thread [lower, upper] interval reservations, shared by the
    TagIBR variants and 2GEIBR (Fig. 5 lines 1–2, 16–17). *)
module Interval_res : sig
  type t = {
    lower : int Atomic.t array;
    upper : int Atomic.t array;
  }

  val create : int -> t
  val start : t -> tid:int -> int -> unit
  val clear : t -> tid:int -> unit
  val upper_cell : t -> tid:int -> int Atomic.t

  val conflict_with_snapshot : t -> 'a Block.t -> bool
  (** Legacy linear-scan predicate, O(threads) per block — the
      differential-testing oracle for the sorted path. *)

  val sweep_snapshot : t -> Sweep_snapshot.t
  (** Sorted-snapshot digest of the table (one O(T log T) build, then
      O(log T) per block) — the production sweep.  [max_int] lowers
      mark unreserved slots and are dropped. *)
end

(** Dynamic thread census: slot occupancy manager behind every
    tracker's [attach]/[detach] (DESIGN.md §10).  Reservation tables
    stay sized at the tracker's creation [threads]; the census tracks
    which slots belong to a live thread, hands the lowest free slot
    to a joiner with a charged CAS, and lets a leaver release its slot
    after the tracker has published a quiescent reservation for it.
    The per-slot ['p] payload (the tracker's reclaimer path) is
    created on first occupancy and adopted by later occupants, so
    retired blocks a departing thread could not yet free stay owned
    by the slot. *)
module Census : sig
  type 'p t

  val create : int -> 'p t
  (** [create capacity] — all slots free.
      @raise Invalid_argument if [capacity < 1]. *)

  val capacity : 'p t -> int

  val is_active : 'p t -> tid:int -> bool

  val active_count : 'p t -> int

  val attaches : 'p t -> int
  (** Successful attaches ever (monotone). *)

  val detaches : 'p t -> int
  (** Detaches ever (monotone). *)

  val generation : 'p t -> tid:int -> int
  (** How many times slot [tid] has been attached; a handle from an
      earlier generation must never coexist with a later one. *)

  val try_attach : 'p t -> make:(int -> 'p) -> (int * 'p) option
  (** Claim the lowest free slot, running [make tid] only on a slot's
      first-ever occupancy (later occupants adopt the stored payload).
      [None] when every slot is taken. *)

  val detach : 'p t -> tid:int -> unit
  (** Release slot [tid].  Caller must have published a quiescent
      reservation for the slot first.
      @raise Invalid_argument if the slot is not active. *)
end
