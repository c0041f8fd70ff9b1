(** Bounded systematic schedule exploration (CHESS-style).

    The exhaustive strategy enumerates, by stateless re-execution,
    every schedule of a scenario with at most [bound] preemptions
    (switches away from a still-runnable thread; switches at thread
    death are free).  Iterative deepening over the bound makes the
    first witness found a fewest-preemptions witness.  A certification
    is always relative to the bound: [Certified] means no schedule
    within it faults. *)

type verdict =
  | Certified of { schedules : int; bound : int }
      (** Every schedule with at most [bound] preemptions passed. *)
  | Witness of {
      trace : Trace.t;   (** full failing schedule, unshrunk *)
      failure : string;
      schedules : int;   (** schedules executed before it was found *)
      preemptions : int; (** preemptions the witness run used *)
    }
  | Exhausted of { schedules : int }
      (** Budget ran out before the bound was fully explored. *)
  | Diverged of { schedules : int }
      (** Schedule number [schedules] took more than {!max_decisions}
          decisions, e.g. a body spinning behind a preempted lock
          holder; exploration stops there. *)

exception Nondeterministic of string
(** A forced replay prefix diverged from its earlier execution —
    the scenario has scheduling-invisible nondeterminism (e.g. an
    uncharged shared access). *)

val default_bound : int    (** 3 *)

val default_budget : int   (** 50_000 schedules *)

val max_decisions : int    (** per schedule *)

val explore : ?bound:int -> ?budget:int -> Scenario.t -> verdict
(** Exhaustive DFS with iterative deepening over preemption bounds
    [0..bound], all depths drawing on one schedule [budget]. *)

val random_walk : ?runs:int -> ?seed:int -> Scenario.t -> verdict
(** Uniform random walk: each dispatch picks uniformly among runnable
    threads.  A cross-check on the DFS; finding nothing certifies
    nothing, so a fault-free walk reports [Exhausted], never
    [Certified]. *)

type outcome = {
  verdict : verdict;
  minimal : (Trace.t * Shrink.stats) option;
      (** shrunk witness, present iff [verdict] is [Witness] *)
}

val check : ?bound:int -> ?budget:int -> Scenario.t -> outcome
(** [explore], plus {!Shrink.minimize} on the witness if one is
    found. *)

val pp_verdict : Format.formatter -> verdict -> unit
