(* The memory-manager API of the paper's Fig. 1, as an OCaml module
   type, plus tuning knobs and capability metadata (used to pair
   schemes with data structures and to regenerate the Fig. 7 table). *)

type config = {
  epoch_freq : int;
  (* Advance the global epoch every [epoch_freq] allocations per
     thread.  The paper uses n_threads * k so the wall-clock epoch
     rate is independent of thread count (§5); their k = 150 makes
     the epoch period ~100us — hundreds of ops, far below a preemption
     slice, with ~10^5 periods per 10-second run.  Our simulated runs
     are ~10^5..10^6 cycles, so k is scaled down to preserve the
     ordering op length < epoch period << block lifetime << stall
     length *and* keep many epoch periods per run.  (A k so large that
     per-thread counters never reach n*k would freeze the epoch and
     spuriously pin everything.) *)
  empty_freq : int;
  (* Attempt reclamation every [empty_freq] retirements (the paper's
     k; k = 30 in their experiments). *)
  slots : int;
  (* Hazard slots per thread for pointer-based schemes (HP, HE). *)
  reuse : bool;
  (* Allocator reuse (benchmark mode) vs. precise-UAF mode (tests). *)
  background_reclaim : bool;
  (* Route retirements through per-thread handoff queues drained by a
     dedicated reclaimer thread (DEBRA-style decoupling) instead of
     sweeping inline on the mutator.  The runner owns the drain loop;
     under allocator backpressure mutators fall back to a synchronous
     drain+sweep so the robustness bounds still hold.  Off by default:
     inline sweeping is the paper's configuration and keeps traced
     runs bit-identical with earlier PRs. *)
}

let default_config ?(threads = 1) () = {
  epoch_freq = 2 * threads;
  empty_freq = 30;
  slots = 8;
  reuse = true;
  background_reclaim = false;
}

(* Reject configurations that would silently disable a scheme's
   safety argument rather than merely tune it.  Called by every
   tracker's [create].  Threads first: a zero-thread census makes the
   derived epoch_freq zero too, and the root cause is the better
   error. *)
let validate ~threads cfg =
  if threads < 1 then
    invalid_arg "Tracker config: threads must be >= 1";
  if cfg.epoch_freq <= 0 then
    invalid_arg "Tracker config: epoch_freq must be positive";
  if cfg.slots < 1 then
    invalid_arg "Tracker config: slots must be >= 1"

(* Fig. 7 row: qualitative properties of a scheme. *)
type properties = {
  robust : bool;           (* stalled thread blocks only bounded memory *)
  needs_unreserve : bool;  (* programmer must release reservations *)
  mutable_pointers : bool; (* arbitrary nonblocking structures supported *)
  bounded_slots : bool;    (* needs a per-read slot budget (HP/HE) *)
  pointer_tag_words : int; (* extra words per shared pointer *)
  fence_per_read : bool;   (* write-read fence on (almost) every read *)
  summary : string;        (* prose for the Fig. 7 table *)
}

module type TRACKER = sig
  val name : string
  val props : properties

  type 'a t
  (* A manager instance: global epoch, reservation table, allocator. *)

  type 'a handle
  (* Per-thread session: reservation slots, retired list, counters. *)

  type 'a ptr
  (* A shared mutable pointer cell holding an ['a View.t]. *)

  val create : threads:int -> config -> 'a t
  val register : 'a t -> tid:int -> 'a handle
  (* Fixed-census registration: the caller owns slot assignment.
     Do not mix with [attach]/[detach] on the same instance. *)

  val attach : 'a t -> 'a handle option
  (* Dynamic registration: claim the lowest free census slot, or
     [None] when all [threads] slots are occupied.  The slot's
     reclaimer path is created on first occupancy and adopted by
     later occupants, so retirements a departing thread could not yet
     free stay owned by the slot.  See DESIGN.md §10. *)

  val detach : 'a handle -> unit
  (* Release an [attach]ed handle.  The caller must be between
     operations (no reservation held).  Order inside: [force_empty],
     publish a quiescent reservation, flush the allocator magazines,
     then free the census slot — so a joiner that reuses the slot can
     never alias a reservation the leaver still held.  The handle must
     not be used afterwards. *)

  val handle_tid : 'a handle -> int
  (* The census slot this handle occupies (stable for its lifetime). *)

  (* Fig. 1 API *)
  val alloc : 'a handle -> 'a -> 'a Block.t
  val dealloc : 'a handle -> 'a Block.t -> unit
  (* Free a block that was never published (lost its install CAS). *)

  val retire : 'a handle -> 'a Block.t -> unit
  val start_op : 'a handle -> unit
  val end_op : 'a handle -> unit

  val make_ptr : 'a t -> ?tag:int -> 'a Block.t option -> 'a ptr
  val read : 'a handle -> slot:int -> 'a ptr -> 'a View.t
  (* Protected pointer read.  [slot] is meaningful only for schemes
     with per-pointer reservations (HP, HE); others ignore it. *)

  val read_root : 'a handle -> 'a ptr -> 'a View.t
  (* POIBR's guarded root read (Fig. 4); for every other scheme this
     is [read ~slot:0]. *)

  val write : 'a handle -> 'a ptr -> ?tag:int -> 'a Block.t option -> unit
  val cas :
    'a handle -> 'a ptr -> expected:'a View.t -> ?tag:int ->
    'a Block.t option -> bool

  val unreserve : 'a handle -> slot:int -> unit
  (* Release a per-pointer reservation (no-op unless HP/HE). *)

  val reassign : 'a handle -> src:int -> dst:int -> unit
  (* Move a reservation between slots without re-validation (hand-
     over-hand traversal); no-op unless HP/HE. *)

  (* Observability *)
  val retired_count : 'a handle -> int
  val force_empty : 'a handle -> unit
  (* Sweep the handle's own retired blocks now, ignoring the cadence.
     Under [background_reclaim] the handle's retirements already
     belong to the service, which sweeps them under its drain lock;
     then this only runs the scheme's pre-sweep hook and frees
     nothing, so no block is swept from two threads at once. *)
  val allocator : 'a t -> 'a Alloc.t
  val epoch_value : 'a t -> int   (* 0 for epoch-less schemes *)

  val reclaim_service : 'a t -> Handoff.service option
  (* The background-reclamation service when [background_reclaim] is
     set: the runner's reclaimer thread calls [drain] in a loop and
     [flush] at shutdown.  [None] when the feature is off or the
     scheme never sweeps (NoMM, UnsafeFree). *)

  val eject : 'a t -> tid:int -> unit
  (* DEBRA+/NBR-style neutralization: expire thread [tid]'s
     reservations so they no longer pin retired blocks, restoring
     reclamation after the thread crash-faulted.  SOUND ONLY for a
     dead, parked, or suspended thread — ejecting a running thread
     that still dereferences its protected blocks readmits
     use-after-free (the watchdog's progress heuristic is the
     caller's responsibility; see DESIGN.md §7).  A victim that
     is *neutralized* rather than crashed may run again afterwards,
     but only through [recover], which re-establishes protection
     before the operation retries.  No-op for schemes that hold
     nothing between operations. *)

  val recover : 'a handle -> unit
  (* Neutralization recovery (DEBRA+, DESIGN.md §12): called by
     [Ds_common.with_op] after [Fault.Neutralized] unwound the
     current attempt.  Contract: drop every reservation the handle
     holds (an [eject]-style self-expiry) and then re-establish
     protection exactly as if [start_op] had just run, so the retried
     attempt starts from a clean, protected state.  The deliberately unsound
     [debra-norestart] variant omits the re-protect step — that is
     the bug class this API exists to make impossible to write by
     accident elsewhere. *)
end

type packed = (module TRACKER)
