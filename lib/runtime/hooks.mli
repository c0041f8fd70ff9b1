(** Bridge between reclamation / data-structure code and the execution
    backend.

    The same tracker and data-structure code runs under the
    discrete-event simulator (where every shared-memory primitive
    charges a cost and yields a preemption point) and on real OCaml
    domains (where no handler is installed unless a run needs
    neutralization rails).  The active handler is domain-local state;
    {!with_handler} is the only way to install one. *)

exception Neutralized
(** Delivered {e into} a victim thread as a neutralization signal
    (DEBRA+): unwinds the victim's current operation so
    [Ds_common.with_op] can drop reservations, re-protect, and retry
    from scratch.  Only ever raised while the victim's restart window
    is open (see {!restart_window}). *)

type handler = {
  step : int -> unit;        (** charge cycles; may deschedule the caller *)
  current_tid : unit -> int; (** logical thread id of the caller *)
  now : unit -> int;         (** caller's elapsed virtual time *)
  global_now : unit -> int;  (** machine-wide virtual wall-clock time *)
  restart_window : bool -> bool;
  (** set the caller's restart window; returns the previous state *)
  poll_neutralize : unit -> unit;
  (** guard-path poll: raise {!Neutralized} if a signal is pending *)
}

val default : handler
(** No-op handler (native execution). *)

val active : unit -> bool
(** [false] while no handler is installed on any domain and cost
    attribution ({!Ibr_obs.Probe.enable_hist}) is off: every hook is
    then the {!default} no-op, so hot paths test this one atomic load
    and go straight to the raw operation.  Every hook below does so
    itself. *)

type demand = private int Atomic.t

val demand : demand
(** The word {!active} tests, for per-primitive paths that cannot
    afford the call: [Atomic.get (demand :> int Atomic.t) <> 0] is
    [active ()].  Only {!with_handler} and the attribution listener
    write it. *)

val installed : unit -> int
(** Number of {!with_handler} frames currently open, over all
    domains. *)

val step : int -> unit
(** Charge [cost] cycles through the current handler. *)

val current_tid : unit -> int
val now : unit -> int

val global_now : unit -> int
(** Machine-wide event-sequence timestamp, consistent with the order
    in which shared-memory effects execute (used to timestamp
    linearizability histories). *)

val restart_window : bool -> bool
(** [restart_window b] opens ([true]) or closes ([false]) the calling
    thread's restart window and returns the previous state.
    {!Neutralized} is only delivered while the window is open:
    [Ds_common.with_op] opens it around each restartable attempt, and
    data structures mask it ([Ds_common.committed]) across sections
    that must not be unwound once a linearization point has landed. *)

val poll_neutralize : unit -> unit
(** Guard-path neutralization poll (domains backend): raises
    {!Neutralized} if a signal is pending for the caller and the
    restart window is open.  No-op on the simulator, which delivers
    the signal at the victim's next scheduling point instead. *)

val with_handler : handler -> (unit -> 'a) -> 'a
(** Run with a handler installed on the calling domain, counted in
    {!installed}; restores the previous one and the count on return
    or exception. *)
