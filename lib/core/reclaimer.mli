(** Pluggable retirement backends: the per-thread retired store, the
    [empty_freq] countdown, and the sweep invocation that every
    tracker used to hand-roll, extracted into one layer.

    A tracker builds one [t] per handle, passing its conflict source
    as closures; {!add} records a retirement and runs the countdown;
    the backend decides how the limbo blocks are stored and how much
    of a sweep can be skipped:

    - [List]: one flat list, every sweep examines every block (the
      original behaviour; differential oracle and ablation baseline).
    - [Buckets]: limbo lists bucketed by retire epoch, sorted.  A
      [Threshold] conflict frees/keeps whole buckets without touching
      their blocks — O(freed + buckets) rather than O(retired); an
      [Intervals] conflict frees wholesale every bucket below the
      smallest reserved lower endpoint, then tests the rest per block.
    - [Gated]: [Buckets] plus sweep gating — after a sweep that freed
      nothing, sweeps (including the reservation snapshot) are skipped
      until the global epoch moves.  Gating only defers frees; {!force}
      bypasses it, and epoch-less schemes (whose [current_epoch]
      returns 0) never gate. *)

type backend = List | Buckets | Gated

val backend_name : backend -> string
val backend_of_string : string -> backend option

val all_backends : backend list
(** In ablation order: [[List; Buckets; Gated]]. *)

(** A sweep's conflict test: a structured {!Tracker_common.Conflict.t}
    (which the bucket walk exploits for wholesale decisions) or an
    opaque predicate (HP's hazard set, legacy linear-scan oracles)
    that forces per-block examination. *)
type 'a test =
  | Shape of Tracker_common.Conflict.t
  | Predicate of ('a Block.t -> bool)

type 'a t

val create :
  backend:backend ->
  empty_freq:int ->
  ?prepare:(unit -> unit) ->
  current_epoch:(unit -> int) ->
  source:(unit -> 'a test) ->
  free:('a Block.t -> unit) ->
  unit ->
  'a t
(** [prepare] runs at every retire-cadence sweep attempt before the
    gate is consulted (QSBR/Fraser put their epoch advancement here so
    a closed gate cannot freeze the epoch).  [current_epoch] is an
    uncharged peek — return 0 for epoch-less schemes, which disables
    gating.  [source] builds the conflict test, paying the reservation
    snapshot; [free] releases one block. *)

val add : 'a t -> 'a Block.t -> unit
(** Record a retirement (the block's retire epoch must already be
    set); every [empty_freq] retirements triggers {!sweep}. *)

val sweep : 'a t -> unit
(** One gated sweep attempt: run [prepare], then either skip (gate
    closed) or build the test and sweep the store. *)

val force : 'a t -> unit
(** Sweep now, bypassing and clearing the gate, without [prepare]
    (callers of [force_empty] do their own preparation). *)

val pressure : 'a t -> unit
(** Memory-pressure sweep ({!Alloc.set_pressure_hook}): [prepare]
    (epoch advancement must keep moving under a capped heap) then an
    unconditional, gate-bypassing sweep. *)

val count : 'a t -> int
(** Retired-but-unreclaimed blocks currently held. *)

val total_retired : 'a t -> int
val total_reclaimed : 'a t -> int

val gate : 'a t -> (int * int) option
(** [Some (epoch, bound)] while the gate is closed: the global epoch
    at the zero-free sweep that armed it and the conflict bound that
    sweep tested against. *)

val bucket_count : 'a t -> int
(** Occupied limbo buckets (0 for the [List] backend). *)

val iter : 'a t -> ('a Block.t -> unit) -> unit
(** Observational walk over the still-retired blocks. *)

val drain_all : 'a t -> ('a Block.t -> unit) -> unit
(** Remove {e every} block from the store and hand it to the callback
    — no conflict test, no gate.  The
    "free your limbo list on exit without consulting reservations"
    mistake, kept only so the [Ebr.Noflush] demonstration oracle can
    model a broken detach precisely; sound code paths never call
    it. *)
