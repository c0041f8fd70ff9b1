(** Simulated manual allocator (the jemalloc stand-in; DESIGN.md §1).

    Per-thread magazine caches make allocation contention-free, as
    jemalloc's tcache does: each thread holds a loaded magazine plus a
    spare, and whole full magazines overflow to / refill from a shared
    depot in one CAS per [magazine_size] blocks.  Two modes:
    - [reuse = true] (benchmark mode): freed blocks are reincarnated
      by later allocations.  Type-preserving by construction — an
      ['a t] only recycles ['a Block.t]s — which is exactly the
      guarantee TagIBR-TPA requires.
    - [reuse = false] (checker mode): reclaimed blocks stay reclaimed,
      so every dangling access is detected with certainty.

    An optional [capacity] bounds the footprint (Live + Retired
    blocks).  Admission is a reservation on an atomic footprint
    counter (fetch-and-add, undone on overshoot), so the bound is
    strict even under concurrent admitters.  A full heap applies
    backpressure: {!alloc} invokes the caller's registered
    memory-pressure hook and backs off exponentially in virtual time;
    once the retry budget is spent it reports
    {!Fault.Alloc_exhausted} and raises {!Exhausted} so the operation
    can abort gracefully. *)

exception Exhausted
(** Raised by {!alloc} (after reporting [Fault.Alloc_exhausted]) when
    the heap is still at capacity after the backpressure ladder. *)

type 'a t

val create :
  ?reuse:bool -> ?capacity:int -> ?retry_budget:int -> threads:int ->
  unit -> 'a t
(** [reuse] defaults to [true]; [capacity] to unbounded;
    [retry_budget] (pressure-hook/backoff rounds per full-heap
    allocation) to 8.
    @raise Invalid_argument if [threads < 1] or [capacity < 1]. *)

val threads : 'a t -> int

val magazine_size : int
(** Blocks per magazine: 64. *)

val capacity : 'a t -> int option

val set_capacity : 'a t -> int option -> unit
(** Install or lift the footprint bound (harnesses size the cap from
    the post-prefill working set, which is only known after prefill
    allocations have happened). *)

val footprint : 'a t -> int
(** Current Live + Retired blocks; cached free blocks have been
    returned to the arena and do not count. *)

val set_pressure_hook : 'a t -> tid:int -> (unit -> unit) -> unit
(** Register thread [tid]'s memory-pressure hook, invoked by {!alloc}
    between backoff rounds when the heap is at capacity (trackers
    register a forced reclamation sweep). *)

val alloc : 'a t -> tid:int -> 'a -> 'a Block.t
(** Serve from thread [tid]'s magazines (falling back to the depot) or
    make a fresh block.
    @raise Exhausted if a capacity is set and no reservation succeeds
    after the backpressure ladder (in [Fault.Raise] mode the fault
    report raises {!Fault.Memory_fault} first). *)

val free : 'a t -> tid:int -> 'a Block.t -> unit
(** Reclaim a retired block (fault on double free / free of a live
    block). *)

val free_unpublished : 'a t -> tid:int -> 'a Block.t -> unit
(** Reclaim a block that was never published. *)

val flush_magazines : 'a t -> tid:int -> unit
(** Return thread [tid]'s cached free blocks (both magazines, partial
    or full) to the shared depot.  Called by the tracker detach path:
    only the magazine owner may walk its lists, so a departing thread
    must flush them itself or its cached blocks stay stranded until
    the slot is reused. *)

type stats = {
  allocated : int;  (** total alloc calls *)
  fresh : int;      (** served by fresh blocks *)
  reused : int;     (** served from a cache *)
  freed : int;      (** total frees *)
  live : int;       (** the footprint: allocated - freed (Live or
                        Retired) *)
  cached : int;     (** blocks sitting in magazines and the depot *)
  peak_footprint : int;   (** high-water mark of [live] *)
  pressure_retries : int; (** backpressure rounds taken by {!alloc} *)
  oom_events : int;       (** allocations aborted with {!Exhausted} *)
  mag_hits : int;         (** allocs served from loaded/previous *)
  mag_misses : int;       (** allocs that fell through to depot/fresh *)
  depot_refills : int;    (** full magazines taken from the depot *)
  depot_flushes : int;    (** full magazines pushed to the depot *)
}

val stats : 'a t -> stats
(** Every field but [live], [peak_footprint], [pressure_retries],
    [oom_events] and the depot's share of [cached] is a sum of
    per-thread counters that only their owners write.  The sums are
    exact once the writers have quiesced (after [Domain.join], and at
    any point of a simulated run); read mid-run from another domain
    they may lag.  [live] reads the shared footprint word, which
    equals [allocated - freed] whenever no admission is in flight. *)

val pp_stats : Format.formatter -> stats -> unit

val publish_stats : stats -> unit
(** Publish a stats record to the registry gauges ([allocated], [freed],
    [live], [cached], [oom_events], [pressure_retries],
    [peak_footprint], [mag_hits], [mag_misses], [depot_refills],
    [depot_flushes]); called by runners at end of run. *)
