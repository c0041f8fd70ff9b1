(** The checked scenario suite: reclamation-race choreographies
    instantiable for any registered tracker. *)

val reader_writer : ?empty_freq:int -> Ibr_core.Registry.entry -> Scenario.t
(** Two threads: a reader holding a guarded root read against a writer
    that publishes, detaches, retires and reclaims the block.  The
    Fig. 6 shape — [Two_ge_ibr.Unfenced]'s use-after-free window lives
    here (3 preemptions).  [empty_freq] (default effectively-never)
    sets the retire-cadence sweep period — pass 1 to sweep inside the
    explored schedules; a given period suffixes the scenario name
    "@buckets". *)

val crash_mid_op : Ibr_core.Registry.entry -> Scenario.t
(** Two threads: a reader that crashes mid-operation
    ([Ibr_runtime.Sched.crash_self] — the continuation is abandoned,
    [end_op] never runs) against a writer that detaches, retires and
    force-empties.  Sound trackers must stay fault-free on every
    interleaving AND keep the dead reader's reservation pinning the
    block it observed (DESIGN.md §7); [Unsafe_free] breaks both. *)

val advance_race : Ibr_core.Registry.entry -> Scenario.t
(** Three threads: an un-quiesced reader, a retirer, and a second
    epoch advancer.  The QSBR grace-period-skip shape (DESIGN.md
    §5a.3) — [Qsbr.Noncas]'s use-after-free lives here
    (2 preemptions). *)

val handoff_drain : Ibr_core.Registry.entry -> Scenario.t
(** Three threads under [background_reclaim = true]: a reader holding
    a guarded root read, a writer whose retire is a handoff-queue
    append (in-flight from that moment), and the drain service itself
    (drain + flush through {!Ibr_core.Handoff.service}).  Every
    explored schedule interleaves the push, the take-all exchange, the
    sweep and the deref — a sound tracker's drain must not launder a
    still-reserved block past its conflict test (DESIGN.md §9).
    Trackers without a service fall back to a force-empty third
    thread. *)

val detach_drain : Ibr_core.Registry.entry -> Scenario.t
(** Three threads under [background_reclaim = true] and
    [empty_freq = 2] (DESIGN.md §10b): a writer that retires a block
    and then runs [force_empty], the first step of [detach]; a
    producer that holds a guarded read of that block and then retires
    its own; and the service draining once.  Only the service may
    sweep its reclaimer: a [force_empty] that also sweeps it frees the
    same blocks twice (1 preemption).  [Unsafe_free] faults on the
    producer's deref. *)

val thread_churn : Ibr_core.Registry.entry -> Scenario.t
(** Three bodies on a census of capacity 2 (DESIGN.md §10): a reader
    holding a guarded root read, a churner that retires the block the
    reader may hold and then {e detaches}, and a joiner that reuses a
    leaver's slot (bounded attach retries) for a guarded read of its
    own.  A sound detach's final guarded sweep must honour the
    reader's live reservation and leave the reused slot quiescent;
    [Ebr.Noflush] (detach frees pending retirements without that
    sweep) has its use-after-free here (2 preemptions). *)

val neutralize_mid_op : Ibr_core.Registry.entry -> Scenario.t
(** Three threads (DESIGN.md §12): a victim running a guarded read
    under the [with_op] restart protocol (window open per attempt,
    {!Ibr_core.Fault.Neutralized} caught, [recover], retry), a peer
    that delivers the restart signal through the scheduler
    ({!Ibr_runtime.Sched.neutralize_peer}), and a writer that unlinks,
    retires and force-frees the block.  A sound [recover]
    re-establishes protection before the retry reads;
    [Debra_plus.Norestart] (drops without re-protecting) has its
    use-after-free here (2 preemptions). *)

val queue_dequeue_churn : Ibr_core.Registry.entry -> Scenario.t
(** Two threads on the Michael–Scott dequeue shape: a reader performs
    a dequeuer's read phase — guarded head read, deref, guarded
    successor read — against a churner running two enqueue+dequeue
    rounds.  Each enqueue allocates (advancing the epoch under
    [epoch_freq = 1]) and each dequeue retires the node head swings
    past, so the second round retires a node born during the race —
    the reader's head read must extend its upper reservation endpoint
    to cover it.  [Two_ge_ibr.Unfenced]'s unpublished extension window
    admits the head-of-queue use-after-free (3 preemptions). *)

val bucket_migrate : Ibr_core.Registry.entry -> Scenario.t
(** Two threads on the resizable-hashmap migration shape: a reader
    holds a guarded read of the bucket-shortcut table block and then
    derefs through a bucket cell, against a migrator running two
    back-to-back growths, each publishing a doubled table (allocating
    it advances the epoch) and retiring the superseded table block
    wholesale — the BULK retirement path.  The second growth retires a
    race-born table, so the reader's root read must extend its upper
    endpoint; sound trackers keep every superseded table alive for the
    reader, [Unsafe_free] and [Two_ge_ibr.Unfenced] free one under the
    reader's feet (3 preemptions). *)

type expectation = Safe | Faulty

type case = {
  scenario : Scenario.t;
  expect : expectation;
  bound : int;  (** preemption bound the expectation is checked at *)
}

val cases : unit -> case list
(** The full suite: [reader_writer] and [crash_mid_op] for every
    correct tracker (Safe) and for the oracles, the reader_writer
    shape re-certified with per-retire sweeps of the bucket store
    ("@buckets"), [handoff_drain] and [detach_drain] for
    every tracker with [Unsafe_free] riding along Faulty,
    [thread_churn] for every tracker with [Unsafe_free] and
    [Ebr.Noflush] riding along Faulty, [advance_race] for the
    QSBR-shaped trackers, [bucket_migrate] for every tracker, and
    [queue_dequeue_churn] for every mutable-pointer tracker (the
    queue's next cells are interior mutation, outside POIBR's
    contract) — [Unsafe_free] and [Two_ge_ibr.Unfenced] ride along
    Faulty on both of the last two.  Expectations are what
    {!Check.explore} must conclude within each case's bound. *)

val find : string -> case option
(** Look a case up by its scenario name (e.g. for trace replay). *)
