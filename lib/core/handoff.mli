(** Off-critical-path reclamation (DESIGN.md §9): per-thread handoff
    queues in front of one service-owned {!Reclaimer}, drained by a
    dedicated reclaimer thread, so a mutator's [retire] is one queue
    append and sweeps run concurrently with operations. *)

type 'a t

val create : producers:int -> 'a Reclaimer.t -> 'a t
(** One single-producer queue segment per thread id in
    [0 .. producers-1]; [rc] is the service-owned reclaimer every
    drain feeds.  Only the lock holder sweeps [rc]: the drain cadence,
    {!pressure} and {!flush} all run under the drain lock. *)

val push : 'a t -> tid:int -> 'a Block.t -> unit
(** Queue one retired block (retire epoch already set) with one CAS.
    Only thread [tid] may push to its own segment. *)

val drain : 'a t -> int
(** Take-all exchange of every segment into the reclaimer; returns
    the number of blocks moved.  Serialised against {!pressure} and
    {!flush} by an internal spin lock. *)

val pressure : 'a t -> unit
(** Synchronous fallback for {!Alloc.set_pressure_hook}: drain and run
    a sweep now, unless a drain is already in progress (then
    the caller's backoff ladder yields to it). *)

val flush : 'a t -> unit
(** Shutdown: drain until every segment is empty, then run a final
    sweep.  Blocks still conflicting stay in the store. *)

val shutdown_flush : 'a t -> unit
(** {!flush}, seizing the drain lock first.  Only sound once the
    machine is single-threaded again (post-run): a crash that
    abandoned a fiber mid-drain leaves the lock held forever. *)

val queued : 'a t -> int
(** Blocks pushed but not yet drained, from per-queue counts in
    O(producers): exact at every simulator step, and on Domains once
    producers quiesce. *)

(** Monomorphic view for runners and data-structure wrappers.
    [shutdown_flush] is {!flush} that first *seizes* the drain lock:
    only sound once the machine is single-threaded again (post-run),
    where a lock abandoned by a crashed fiber would otherwise spin
    forever. *)
type service = {
  drain : unit -> int;
  flush : unit -> unit;
  shutdown_flush : unit -> unit;
  pending : unit -> int;  (* queued + still held by the reclaimer *)
}

val service : 'a t -> service

(** What a tracker handle retires into: its own reclaimer inline, or
    the handoff queue.  The helpers keep per-tracker wiring mechanical
    and time the retire path into the [retire_cost] histogram. *)
type 'a path =
  | Direct of 'a Reclaimer.t
  | Queued of 'a t

val path_reclaimer : 'a path -> 'a Reclaimer.t
val path_add : 'a path -> tid:int -> 'a Block.t -> unit
val path_count : 'a path -> int
val path_pressure : 'a path -> unit

(** Global handoff telemetry, registered as metric counters
    ([handoff_pushed], [handoff_drained], [handoff_batches],
    [handoff_syncs]). *)
module Stats : sig
  val pushed : int Atomic.t
  val drained : int Atomic.t
  val batches : int Atomic.t
  val syncs : int Atomic.t
  val reset : unit -> unit
end
