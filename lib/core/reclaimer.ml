(* The retirement side of every tracker, as one layer.

   Every scheme used to own a hand-rolled copy of the same pipeline:
   a per-thread retired list, an [empty_freq] countdown, and a sweep
   that conflict-tests every retired block.  This module owns that
   pipeline once, in one store: epoch-bucketed limbo lists (DEBRA's
   layout).  Blocks sharing a retire epoch share a bucket, and buckets
   are kept sorted by retire epoch.  A [Threshold] sweep
   (EBR/QSBR/Fraser) frees or keeps whole buckets without touching
   their blocks — O(freed + buckets) instead of O(retired) — and an
   [Intervals] sweep (HE/POIBR/IBR family) frees wholesale every
   bucket older than the smallest reserved lower endpoint before
   falling back to per-block tests.  Either way a sweep frees exactly
   the blocks its conflict test rejects (DESIGN.md §4b).

   The tracker supplies its conflict source as closures at [create]
   time; the sweep itself — storage walk, wholesale frees, telemetry —
   is shared by all twelve schemes. *)

(* What a sweep tests blocks against: the structured conflicts of
   [Tracker_common.Conflict] (which the bucket walk can exploit), or
   an opaque per-block predicate (HP's hazard-id set) that forces
   per-block examination. *)
type 'a test =
  | Shape of Tracker_common.Conflict.t
  | Predicate of ('a Block.t -> bool)

(* One limbo bucket: every block in it was retired in [epoch]. *)
type 'a bucket = {
  epoch : int;
  mutable blocks : 'a Block.t list;
  mutable size : int;
}

type 'a t = {
  empty_freq : int;
  prepare : unit -> unit;
  (* Run before every retire-cadence and pressure sweep (QSBR/Fraser
     epoch advancement lives here). *)
  source : unit -> 'a test;
  (* Build the conflict test, paying the reservation snapshot. *)
  free : 'a Block.t -> unit;
  mutable newest : 'a bucket list; (* strictly descending retire epoch *)
  mutable count : int;
  mutable retire_counter : int;
  mutable total_reclaimed : int;
}

let create ~empty_freq ?(prepare = fun () -> ()) ~source ~free () =
  { empty_freq; prepare; source; free; newest = []; count = 0;
    retire_counter = 0; total_reclaimed = 0 }

let count t = t.count
let total_reclaimed t = t.total_reclaimed
let bucket_count t = List.length t.newest

(* Unconditional teardown drain: remove every block from the store and
   hand it to [f] — no conflict test.  This is exactly the "free your
   limbo list on exit without looking at anyone's reservations"
   mistake; it exists so the Ebr.Noflush demonstration oracle can
   model a broken detach precisely (a pure reservation-ignoring free,
   with the store left consistent).  Sound code paths never call
   it. *)
let drain_all t f =
  let buckets = t.newest in
  t.newest <- [];
  t.total_reclaimed <- t.total_reclaimed + t.count;
  t.count <- 0;
  List.iter (fun bk -> List.iter f bk.blocks) buckets

(* Retire epochs are non-decreasing (the global epoch is monotone), so
   a new retirement lands in the head bucket or opens a fresh one in
   O(1); the splice loop only runs for out-of-order epochs, which a
   monotone epoch never produces but the structure stays correct for. *)
let add_block t b =
  let e = Block.retire_epoch b in
  Prim.local 1;
  (match t.newest with
   | bk :: _ when bk.epoch = e ->
     bk.blocks <- b :: bk.blocks;
     bk.size <- bk.size + 1
   | [] -> t.newest <- [ { epoch = e; blocks = [ b ]; size = 1 } ]
   | bk :: _ when bk.epoch < e ->
     t.newest <- { epoch = e; blocks = [ b ]; size = 1 } :: t.newest
   | _ ->
     let rec splice = function
       | bk :: rest when bk.epoch > e -> bk :: splice rest
       | bk :: rest when bk.epoch = e ->
         bk.blocks <- b :: bk.blocks;
         bk.size <- bk.size + 1;
         bk :: rest
       | rest -> { epoch = e; blocks = [ b ]; size = 1 } :: rest
     in
     t.newest <- splice t.newest);
  t.count <- t.count + 1

(* Sweep the store.  [examined] counts only per-block conflict tests —
   wholesale bucket decisions charge one local step for the bucket
   header and never look at the blocks. *)
let sweep_store t test =
  Tracker_common.Sweep_stats.note_buckets (List.length t.newest);
  (* Decide-then-commit-then-free: the walk only *condemns* blocks
     (accumulating them), the surviving store is committed in one
     mutation, and the frees run last.  The decide phase charges cost
     (preemption points), so a horizon stop or crash that lands inside
     it leaves every block still in the store; one landing inside the
     free loop can only leak condemned blocks — never leave a freed
     block where a later sweep (the background reclaimer's shutdown
     flush, a pressure sweep from another path) would free it again. *)
  let examined = ref 0 and doomed = ref [] and freed = ref 0 in
  let condemn b =
    doomed := b :: !doomed;
    incr freed
  in
  let condemn_whole bk = List.iter condemn bk.blocks in
  (* Per-block fallback inside one bucket; None when it drained. *)
  let filter_bucket pred bk =
    let kept =
      List.filter
        (fun b ->
           Prim.local 1;
           incr examined;
           if pred b then true
           else begin
             condemn b;
             false
           end)
        bk.blocks
    in
    match kept with
    | [] -> None
    | blocks ->
      bk.blocks <- blocks;
      bk.size <- List.length blocks;
      Some bk
  in
  let kept =
    match test with
    | Shape Tracker_common.Conflict.Never ->
      List.iter
        (fun bk ->
           Prim.local 1;
           condemn_whole bk)
        t.newest;
      []
    | Shape (Tracker_common.Conflict.Threshold n) ->
      (* Descending epochs: the protected buckets (epoch >= n) form a
         prefix, kept without examining a single block; everything
         after the first unprotected bucket frees wholesale. *)
      let rec split = function
        | bk :: rest when bk.epoch >= n ->
          Prim.local 1;
          bk :: split rest
        | old ->
          List.iter
            (fun bk ->
               Prim.local 1;
               condemn_whole bk)
            old;
          []
      in
      split t.newest
    | Shape (Tracker_common.Conflict.Intervals s) ->
      (* Buckets older than every reserved lower endpoint cannot
         intersect any interval; the rest degenerate to per-block
         tests (birth epochs differ within a bucket). *)
      let lo_min = Tracker_common.Sweep_snapshot.min_lower s in
      let pred =
        Tracker_common.Conflict.pred (Tracker_common.Conflict.Intervals s)
      in
      List.filter_map
        (fun bk ->
           Prim.local 1;
           if bk.epoch < lo_min then begin
             condemn_whole bk;
             None
           end
           else filter_bucket pred bk)
        t.newest
    | Predicate p ->
      List.filter_map
        (fun bk ->
           Prim.local 1;
           filter_bucket p bk)
        t.newest
  in
  t.newest <- kept;
  t.count <- List.fold_left (fun acc bk -> acc + bk.size) 0 kept;
  Tracker_common.Sweep_stats.note_sweep ~examined:!examined ~freed:!freed;
  List.iter
    (fun b ->
       t.total_reclaimed <- t.total_reclaimed + 1;
       t.free b)
    (List.rev !doomed);
  !freed

let force t =
  Ibr_obs.Probe.sweep_begin ~phase:Ibr_obs.Probe.Snapshot;
  let test = t.source () in
  Ibr_obs.Probe.sweep_end ~phase:Ibr_obs.Probe.Snapshot ~freed:0;
  Ibr_obs.Probe.sweep_begin ~phase:Ibr_obs.Probe.Scan;
  let freed = sweep_store t test in
  Ibr_obs.Probe.sweep_end ~phase:Ibr_obs.Probe.Scan ~freed

let sweep t =
  Ibr_obs.Probe.sweep_begin ~phase:Ibr_obs.Probe.Prepare;
  t.prepare ();
  Ibr_obs.Probe.sweep_end ~phase:Ibr_obs.Probe.Prepare ~freed:0;
  force t

let add t b =
  Ibr_obs.Probe.retire ~block:(Block.id b);
  add_block t b;
  t.retire_counter <- t.retire_counter + 1;
  if t.empty_freq > 0 && t.retire_counter mod t.empty_freq = 0 then sweep t
