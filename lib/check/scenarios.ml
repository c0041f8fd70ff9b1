(* The checked scenario suite: small fixed choreographies that target
   the reclamation races this codebase is about, instantiable for any
   registered tracker.

   [reader_writer] is the Fig. 6 shape: a reader holds a pointer it
   read through the tracker's guarded root read while a writer
   detaches, retires and reclaims the block.  Under a sound tracker no
   interleaving faults; under [Two_ge_ibr.Unfenced] the window between the
   pointer read and the upper-endpoint publication admits a
   use-after-free (3 preemptions), and under [Unsafe_free] almost any
   unlucky ordering does.

   [advance_race] targets the QSBR grace-period-skip (DESIGN.md
   §5a.3): a reader that has not quiesced, a retirer, and a second
   advancer.  With the sound CAS advance the two racing advancers
   collapse into one epoch step and the reader pins the block; with
   the unconditional advance ([Qsbr.Noncas]) both increments land, a
   grace period is skipped, and the retirer frees the block under the
   reader (2 preemptions).

   Scenario state is built inside [make], outside the simulator, so
   setup contributes no decision points; bodies use only the public
   TRACKER API, so every scenario runs unchanged against every
   scheme. *)

open Ibr_core

let deref v =
  match v with
  | View.Ptr { target = b; _ } -> ignore (Block.get b)
  | View.Null _ -> ()

(* reuse = false gives precise use-after-free detection; epoch_freq =
   1 makes the single allocation advance the epoch (opening the
   interval-coverage race); empty_freq large defers all reclamation to
   the explicit [force_empty].  The "@buckets" variant instead sets
   empty_freq = 1 so the retire itself sweeps, which walks the bucket
   store through its cadence path (prepare, then sweep) inside the
   explored schedules. *)
let cfg ?(empty_freq = 1_000_000) threads =
  { (Tracker_intf.default_config ~threads ()) with
    reuse = false; epoch_freq = 1; empty_freq }

let reader_writer ?empty_freq (entry : Registry.entry) =
  let module T = (val entry.tracker : Tracker_intf.TRACKER) in
  Scenario.v
    ~name:
      ("reader_writer/" ^ entry.name
       ^ if Option.is_some empty_freq then "@buckets" else "")
    ~threads:2 (fun () ->
    let t = T.create ~threads:2 (cfg ?empty_freq 2) in
    let h0 = T.register t ~tid:0 and h1 = T.register t ~tid:1 in
    let ptr = T.make_ptr t None in
    let reader _ =
      T.start_op h0;
      let v = T.read_root h0 ptr in
      deref v;
      T.end_op h0
    in
    let writer _ =
      T.start_op h1;
      let b = T.alloc h1 1 in
      T.write h1 ptr (Some b);
      T.write h1 ptr None;
      T.retire h1 b;
      T.end_op h1;
      T.force_empty h1
    in
    { Scenario.bodies = [| reader; writer |]; finish = (fun () -> None) })

(* DESIGN.md §7: a thread that dies mid-operation — [Sched.crash_self]
   abandons the continuation, so [end_op] never runs and the
   reservation published by the guarded read stays up forever.  Two
   properties, over every interleaving: the survivor's retire +
   force-empty never faults, and if the reader's read observed the
   block ([saw]), the dead reservation must go on pinning it — any
   sound scheme whose validated read precedes the retire conflicts
   with it ([Block.is_reclaimed x] must stay false).  [Unsafe_free]
   breaks both. *)
let crash_mid_op (entry : Registry.entry) =
  let module T = (val entry.tracker : Tracker_intf.TRACKER) in
  Scenario.v ~name:("crash_mid_op/" ^ entry.name) ~threads:2 (fun () ->
    let t = T.create ~threads:2 (cfg 2) in
    let h0 = T.register t ~tid:0 and h1 = T.register t ~tid:1 in
    (* Allocated during setup: published before any thread runs. *)
    let x = T.alloc h1 42 in
    let ptr = T.make_ptr t (Some x) in
    let saw = ref false in
    let reader _ =
      T.start_op h0;
      let v = T.read_root h0 ptr in
      (match v with
       | View.Ptr { target = b; _ } ->
         ignore (Block.get b);
         saw := true
       | View.Null _ -> ());
      Ibr_runtime.Sched.crash_self ()
    in
    let writer _ =
      T.start_op h1;
      T.write h1 ptr None;
      T.retire h1 x;
      T.end_op h1;
      T.force_empty h1
    in
    { Scenario.bodies = [| reader; writer |];
      finish =
        (fun () ->
           if !saw && Block.is_reclaimed x then
             Some "crashed reservation not honoured: reclaimed a block \
                   the dead reader still guards"
           else None) })

let advance_race (entry : Registry.entry) =
  let module T = (val entry.tracker : Tracker_intf.TRACKER) in
  Scenario.v ~name:("advance_race/" ^ entry.name) ~threads:3 (fun () ->
    let t = T.create ~threads:3 (cfg 3) in
    let h0 = T.register t ~tid:0
    and h1 = T.register t ~tid:1
    and h2 = T.register t ~tid:2 in
    (* Allocated during setup: published before any thread runs. *)
    let x = T.alloc h1 42 in
    let ptr = T.make_ptr t (Some x) in
    let reader _ =
      T.start_op h0;
      let v = T.read_root h0 ptr in
      deref v;
      T.end_op h0
    in
    let retirer _ =
      T.start_op h1;
      T.write h1 ptr None;
      T.retire h1 x;
      T.end_op h1;
      T.force_empty h1
    in
    let advancer _ = T.force_empty h2 in
    { Scenario.bodies = [| reader; retirer; advancer |];
      finish = (fun () -> None) })

(* The background-reclaim shape (DESIGN.md §9): with
   [background_reclaim = true] a retire is only a handoff-queue
   append, and reclamation happens when the service drains the queues
   into its reclaimer and sweeps.  Three threads: a reader holding a
   guarded root read, a writer that detaches and retires (in-flight in
   the queue from that moment), and the drain service itself — so the
   explored schedules interleave the queue push, the take-all
   exchange, the sweep, and the reader's deref in every order the
   bound admits.  A sound tracker must keep the reader safe on all of
   them: the drain must not launder a still-reserved block past its
   conflict test.  Trackers with no service ([reclaim_service] = None:
   NoMM, UnsafeFree) fall back to a force-empty third thread, keeping
   the scenario instantiable for the Faulty oracle. *)
let handoff_drain (entry : Registry.entry) =
  let module T = (val entry.tracker : Tracker_intf.TRACKER) in
  Scenario.v ~name:("handoff_drain/" ^ entry.name) ~threads:3 (fun () ->
    let c = { (cfg 2) with Tracker_intf.background_reclaim = true } in
    let t = T.create ~threads:2 c in
    let h0 = T.register t ~tid:0 and h1 = T.register t ~tid:1 in
    let ptr = T.make_ptr t None in
    let reader _ =
      T.start_op h0;
      let v = T.read_root h0 ptr in
      deref v;
      T.end_op h0
    in
    let writer _ =
      T.start_op h1;
      let b = T.alloc h1 1 in
      T.write h1 ptr (Some b);
      T.write h1 ptr None;
      T.retire h1 b;
      T.end_op h1
    in
    let drainer =
      match T.reclaim_service t with
      | Some svc ->
        fun _ ->
          ignore (svc.Handoff.drain ());
          svc.Handoff.flush ()
      | None -> fun _ -> T.force_empty h1
    in
    { Scenario.bodies = [| reader; writer; drainer |];
      finish = (fun () -> None) })

(* A thread's final sweep under background reclamation (DESIGN.md
   §10b).  [force_empty] is the first step of every [detach]; on a
   queued path the blocks it could sweep sit in the service's
   reclaimer, which the service sweeps under its drain lock.  Three
   bodies, with [empty_freq = 2] so the service's drain sweeps as soon
   as both retirements reach it:

   - the writer unlinks and retires [x], then calls [force_empty];
   - the producer holds a guarded read of [x] across its deref, then
     retires its own block [y];
   - the service drains once.

   A sweep of the shared reclaimer outside the lock, racing the
   service's cadence sweep, condemns the same blocks twice and frees
   them twice (1 preemption).  [Unsafe_free] frees [x] under the
   producer's deref.  Trackers with no service fall back to a
   force-empty third body, as in [handoff_drain]. *)
let detach_drain (entry : Registry.entry) =
  let module T = (val entry.tracker : Tracker_intf.TRACKER) in
  Scenario.v ~name:("detach_drain/" ^ entry.name) ~threads:3 (fun () ->
    let c =
      { (cfg ~empty_freq:2 2) with Tracker_intf.background_reclaim = true }
    in
    let t = T.create ~threads:2 c in
    let h0 = T.register t ~tid:0 and h1 = T.register t ~tid:1 in
    (* Allocated during setup: published before any thread runs. *)
    let x = T.alloc h0 1 and y = T.alloc h1 2 in
    let ptr = T.make_ptr t (Some x) in
    let writer _ =
      T.start_op h0;
      T.write h0 ptr None;
      T.retire h0 x;
      T.end_op h0;
      T.force_empty h0
    in
    let producer _ =
      T.start_op h1;
      deref (T.read_root h1 ptr);
      T.retire h1 y;
      T.end_op h1
    in
    let service =
      match T.reclaim_service t with
      | Some svc -> fun _ -> ignore (svc.Handoff.drain ())
      | None -> fun _ -> T.force_empty h1
    in
    { Scenario.bodies = [| writer; producer; service |];
      finish = (fun () -> None) })

(* Dynamic-census churn (DESIGN.md §10): the detach protocol raced
   against a reader mid-interval, plus slot reuse by a joiner.  Census
   capacity 2, three bodies:

   - the reader (attached in setup) holds a guarded root read of [x]
     across its deref;
   - the churner (also attached in setup) unlinks and retires [x],
     then detaches — from that moment its slot is reusable and its
     pending retirement must have been either reclaimed by the
     detach's final guarded sweep or handed to the slot's persistent
     path, but never freed *past* the reader's reservation;
   - the joiner tries to attach (bounded retries: a slot only frees
     after a leaver's detach, so an unbounded spin would diverge on
     schedules where no detach has happened yet), and on success runs
     a guarded read on the reused slot and detaches again.

   A sound tracker keeps every interleaving fault-free: detach's final
   sweep honours the reader's live reservation, and the joiner's
   reused slot starts from a quiescent reservation instead of aliasing
   the leaver's.  [Ebr.Noflush] — detach frees its pending retirements
   without that final guarded sweep — has its use-after-free here
   (2 preemptions), and [Unsafe_free]'s immediate free needs the same
   bound. *)
let thread_churn (entry : Registry.entry) =
  let module T = (val entry.tracker : Tracker_intf.TRACKER) in
  Scenario.v ~name:("thread_churn/" ^ entry.name) ~threads:3 (fun () ->
    let t = T.create ~threads:2 (cfg 2) in
    (* Setup runs uncharged: both slots are occupied before any body
       is scheduled, so the joiner contends with real leavers. *)
    let h0 = match T.attach t with Some h -> h | None -> assert false in
    let h1 = match T.attach t with Some h -> h | None -> assert false in
    let x = T.alloc h1 42 in
    let ptr = T.make_ptr t (Some x) in
    let reader _ =
      T.start_op h0;
      let v = T.read_root h0 ptr in
      deref v;
      T.end_op h0;
      T.detach h0
    in
    let churner _ =
      T.start_op h1;
      T.write h1 ptr None;
      T.retire h1 x;
      T.end_op h1;
      T.detach h1
    in
    let joiner _ =
      let rec go attempts =
        if attempts > 0 then
          match T.attach t with
          | None -> go (attempts - 1)
          | Some h2 ->
            T.start_op h2;
            let v = T.read_root h2 ptr in
            deref v;
            T.end_op h2;
            T.detach h2
      in
      go 4
    in
    { Scenario.bodies = [| reader; churner; joiner |];
      finish = (fun () -> None) })

(* Neutralization mid-operation (DEBRA+, DESIGN.md §12): a victim runs
   a guarded read under the [Ds_common.with_op] restart protocol
   (emulated inline — this library sits below [ibr_ds]): window open
   around each attempt, [Fault.Neutralized] caught, [T.recover], retry.
   A peer delivers the restart signal through the scheduler
   ([Sched.neutralize_peer]) at whatever point the explored schedule
   admits; a writer concurrently unlinks, retires and force-frees the
   block.

   A sound tracker keeps every interleaving fault-free: [recover]
   drops the interrupted attempt's reservation {e and re-establishes}
   protection before the retry reads, so whatever the retry
   dereferences is covered.  [Debra_plus.Norestart] — recover drops
   but does not re-protect — has its use-after-free here: the signal
   lands after the victim's first read, the retry re-reads the block
   with no reservation up, and the writer frees it under the
   retry's dereference (2 preemptions). *)
let neutralize_mid_op (entry : Registry.entry) =
  let module T = (val entry.tracker : Tracker_intf.TRACKER) in
  Scenario.v ~name:("neutralize_mid_op/" ^ entry.name) ~threads:3
    (fun () ->
      let t = T.create ~threads:2 (cfg 2) in
      let h0 = T.register t ~tid:0 and h1 = T.register t ~tid:1 in
      (* Allocated during setup: published before any thread runs. *)
      let x = T.alloc h1 42 in
      let ptr = T.make_ptr t (Some x) in
      let victim _ =
        T.start_op h0;
        (* Bounded retries keep the explored state space finite; the
           single signal is delivered at most once, so one retry
           always suffices to finish. *)
        let rec attempt n =
          if n <= 2 then begin
            let prev = Ibr_runtime.Hooks.restart_window true in
            match
              let v = T.read_root h0 ptr in
              deref v
            with
            | () -> ignore (Ibr_runtime.Hooks.restart_window prev)
            | exception Fault.Neutralized ->
              ignore (Ibr_runtime.Hooks.restart_window prev);
              T.recover h0;
              attempt (n + 1)
          end
        in
        attempt 0;
        T.end_op h0
      in
      let neutralizer _ = Ibr_runtime.Sched.neutralize_peer 0 in
      let writer _ =
        T.start_op h1;
        T.write h1 ptr None;
        T.retire h1 x;
        T.end_op h1;
        T.force_empty h1
      in
      { Scenario.bodies = [| victim; neutralizer; writer |];
        finish = (fun () -> None) })

(* The Michael–Scott dequeue shape distilled to tracker calls
   (ISSUE 10): the queue's consumer side reads the dummy at [head],
   and every dequeue retires exactly that node.  Blocks carry int
   payloads used as indices into a [next] cell array (the library
   cannot name a per-tracker node type here), so the queue starts as
   the lone dummy(0) at [head].

   The reader is a dequeuer's read phase: guarded head read, deref to
   find its successor cell, guarded next read, deref.  The churner is
   two enqueue+dequeue rounds — each enqueue is a real allocation, so
   with epoch_freq = 1 the epoch advances inside the scenario, and the
   second dequeue retires a node {e born during the race}.  That is
   the shape interval-family bugs need: a reader whose guarded head
   read must extend its upper reservation endpoint to cover the
   race-born node.  A sound tracker keeps every interleaving
   fault-free; the unfenced 2GEIBR variant's window between reading
   the head pointer and publishing the extended endpoint admits the
   head-of-queue use-after-free (3 preemptions), exactly the race the
   MS queue rideable's dequeue-side retirement is about.  (The tail
   half of each enqueue is elided: no body reads [tail], it would only
   pad the schedule space.) *)
let queue_dequeue_churn (entry : Registry.entry) =
  let module T = (val entry.tracker : Tracker_intf.TRACKER) in
  Scenario.v ~name:("queue_dequeue_churn/" ^ entry.name) ~threads:2
    (fun () ->
      let t = T.create ~threads:2 (cfg 2) in
      let h0 = T.register t ~tid:0 and h1 = T.register t ~tid:1 in
      (* Setup (uncharged): the empty queue — head at dummy(0). *)
      let dummy = T.alloc h1 0 in
      let next =
        [| T.make_ptr t None; T.make_ptr t None; T.make_ptr t None |]
      in
      let head = T.make_ptr t (Some dummy) in
      let reader _ =
        T.start_op h0;
        let hv = T.read_root h0 head in
        (match hv with
         | View.Null _ -> ()
         | View.Ptr { target = hb; _ } ->
           (* Faults here if the churner freed the head node under
              us. *)
           let i = Block.get hb in
           let nv = T.read h0 ~slot:1 next.(i) in
           (* The dequeue discipline's head re-validation (ms_queue.ml
              does the same): a retired dummy's stale next field may
              point at freed memory, so the successor is only
              dereferenced if head has not moved — for EVERY tracker;
              the races this scenario checks are in the guarded reads
              above, not in skipping that validation. *)
           (match T.read h0 ~slot:2 head with
            | View.Ptr { target = hb'; _ } when hb' == hb -> deref nv
            | _ -> ()));
        T.end_op h0
      in
      let churner _ =
        T.start_op h1;
        (* Enqueue b1: the allocation advances the epoch. *)
        let b1 = T.alloc h1 1 in
        T.write h1 next.(0) (Some b1);
        (* Dequeue: swing head past the dummy and retire it. *)
        T.write h1 head (Some b1);
        T.retire h1 dummy;
        (* Enqueue b2, then dequeue b1 — a race-born retirement. *)
        let b2 = T.alloc h1 2 in
        T.write h1 next.(1) (Some b2);
        T.write h1 head (Some b2);
        T.retire h1 b1;
        T.end_op h1;
        T.force_empty h1
      in
      { Scenario.bodies = [| reader; churner |];
        finish = (fun () -> None) })

(* The resizable hashmap's migration shape distilled to tracker calls
   (ISSUE 10): the bucket-shortcut array lives in a tracker block, a
   reader dereferences it to find a bucket cell and then a node
   through that cell, and a migration publishes a replacement table
   and retires the whole superseded array as one block — bulk
   retirement racing a table-holding reader.  Two back-to-back
   migrations run, so the second retires a table {e born during the
   race} (each replacement-table allocation advances the epoch under
   epoch_freq = 1) — the reader's guarded root read must extend its
   upper reservation endpoint to cover it.  The unfenced 2GEIBR
   variant's publication window admits the use-after-free on the
   reader's table deref (3 preemptions). *)
let bucket_migrate (entry : Registry.entry) =
  let module T = (val entry.tracker : Tracker_intf.TRACKER) in
  Scenario.v ~name:("bucket_migrate/" ^ entry.name) ~threads:2 (fun () ->
    let t = T.create ~threads:2 (cfg 2) in
    let h0 = T.register t ~tid:0 and h1 = T.register t ~tid:1 in
    (* Setup (uncharged): root -> table(0); one bucket cell -> node(1). *)
    let table = T.alloc h1 0 in
    let node = T.alloc h1 1 in
    let root = T.make_ptr t (Some table) in
    let bucket = T.make_ptr t (Some node) in
    let reader _ =
      T.start_op h0;
      let tv = T.read_root h0 root in
      (match tv with
       | View.Null _ -> ()
       | View.Ptr { target = tb; _ } ->
         (* Faults here if the migrator freed the table under us. *)
         ignore (Block.get tb);
         let nv = T.read h0 ~slot:1 bucket in
         deref nv);
      T.end_op h0
    in
    let migrator _ =
      T.start_op h1;
      (* First growth: the doubled table's allocation advances the
         epoch; the superseded setup-born table is retired whole. *)
      let table' = T.alloc h1 2 in
      T.write h1 root (Some table');
      T.retire h1 table;
      (* Second growth: retires the race-born [table']. *)
      let table'' = T.alloc h1 3 in
      T.write h1 root (Some table'');
      T.retire h1 table';
      T.end_op h1;
      T.force_empty h1
    in
    { Scenario.bodies = [| reader; migrator |];
      finish = (fun () -> None) })

type expectation = Safe | Faulty

type case = {
  scenario : Scenario.t;
  expect : expectation;
  bound : int; (* preemption bound the expectation is checked at *)
}

(* Sound trackers are certified at the same bound the corresponding
   oracle's witness needs, so the certification is exactly "this bound
   separates sound from unsound".  [Qsbr.Noncas] is Safe under
   [reader_writer]: its bug needs two *racing* advancers, which that
   scenario does not contain — the suite demonstrates witness
   specificity, not just witness existence.

   The "@buckets" re-certification runs every sound tracker with
   empty_freq = 1, so the retire-cadence sweep (bucket splitting and
   wholesale frees) happens inside the explored schedules.  Bound 2
   keeps the larger step count (a sweep per retire) tractable while
   still admitting the known witness shapes; [Unsafe_free] rides along
   Faulty to show the fault detector sees through the store too.

   [handoff_drain] re-certifies every sound tracker with the retire
   path rerouted through the background-reclaim handoff queue, the
   drain and sweep racing the reader inside the explored schedules;
   [Unsafe_free] again rides along Faulty (its immediate free needs no
   queue, so the same bound separates it).  [detach_drain] does the
   same for a thread's final sweep against the service's. *)
let cases () =
  let rw e expect bound = { scenario = reader_writer e; expect; bound } in
  let rwb e expect bound =
    { scenario = reader_writer ~empty_freq:1 e; expect; bound }
  in
  let ar e expect bound = { scenario = advance_race e; expect; bound } in
  let cm e expect bound = { scenario = crash_mid_op e; expect; bound } in
  let hd e expect bound = { scenario = handoff_drain e; expect; bound } in
  let dd e expect bound = { scenario = detach_drain e; expect; bound } in
  let tc e expect bound = { scenario = thread_churn e; expect; bound } in
  let nm e expect bound =
    { scenario = neutralize_mid_op e; expect; bound } in
  let qd e expect bound =
    { scenario = queue_dequeue_churn e; expect; bound } in
  let bm e expect bound = { scenario = bucket_migrate e; expect; bound } in
  List.map (fun e -> rw e Safe 3) Registry.all
  @ List.map (fun e -> cm e Safe 3) Registry.all
  @ [ cm Registry.unsafe_free Faulty 3 ]
  @ List.map (fun e -> nm e Safe 2) Registry.all
  @ [ nm Registry.debra_norestart Faulty 2 ]
  @ List.map (fun e -> hd e Safe 2) Registry.all
  @ [ hd Registry.unsafe_free Faulty 2 ]
  @ List.map (fun e -> dd e Safe 2) Registry.all
  @ [ dd Registry.unsafe_free Faulty 2 ]
  @ List.map (fun e -> tc e Safe 2) Registry.all
  @ [ tc Registry.unsafe_free Faulty 2; tc Registry.ebr_noflush Faulty 2 ]
  @ List.map (fun e -> rwb e Safe 2) Registry.all
  @ [ rwb Registry.unsafe_free Faulty 3 ]
  (* queue_dequeue_churn mutates interior pointers (the next cells),
     which is outside POIBR's immutable-interior contract — the same
     reason the ds registry refuses the MS queue under POIBR — so it
     certifies the mutable-pointer trackers only.  bucket_migrate
     mutates nothing but the root and runs the full registry. *)
  @ List.map
      (fun e -> qd e Safe 3)
      (List.filter
         (fun (e : Registry.entry) ->
           let module T = (val e.tracker : Tracker_intf.TRACKER) in
           T.props.Tracker_intf.mutable_pointers)
         Registry.all)
  @ [
      qd Registry.unsafe_free Faulty 3;
      qd Registry.two_ge_unfenced Faulty 3;
    ]
  @ List.map (fun e -> bm e Safe 3) Registry.all
  @ [
      bm Registry.unsafe_free Faulty 3;
      bm Registry.two_ge_unfenced Faulty 3;
    ]
  @ [
      rw Registry.unsafe_free Faulty 3;
      rw Registry.two_ge_unfenced Faulty 3;
      rw Registry.qsbr_noncas Safe 3;
      ar Registry.qsbr Safe 2;
      ar Registry.fraser_ebr Safe 2;
      ar Registry.qsbr_noncas Faulty 2;
    ]

let find name =
  List.find_opt (fun c -> c.scenario.Scenario.name = name) (cases ())
