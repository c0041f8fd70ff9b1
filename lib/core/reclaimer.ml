(* The retirement side of every tracker, as one layer.

   Every scheme used to own a hand-rolled copy of the same pipeline:
   a per-thread retired list, an [empty_freq] countdown, and a sweep
   that conflict-tests every retired block.  This module owns that
   pipeline once, in one store: epoch-bucketed limbo lists (DEBRA's
   layout).  Blocks sharing a retire epoch share a bucket, and buckets
   are kept sorted by retire epoch.  A sweep is one walk over them
   (DESIGN.md §4b): buckets retired before the test's bound free
   whole, unexamined; the rest stay whole (EBR/QSBR/Fraser) or are
   tested block by block (HE/POIBR/IBR family, HP).  Either way a
   sweep frees exactly the blocks [survives] rejects.

   The tracker supplies its conflict source as closures at [create]
   time; the sweep itself — storage walk, wholesale frees, telemetry —
   is shared by all twelve schemes. *)

(* What a sweep keeps: a block retired at or after [below] whose
   [keep] test (when there is one) holds. *)
type 'a test = {
  below : int;
  keep : ('a Block.t -> bool) option;
}

let survives { below; keep } b =
  Block.retire_epoch b >= below
  && match keep with None -> true | Some keep -> keep b

(* A block older than every reserved lower endpoint intersects no
   interval, so the digest's smallest lower endpoint is the bound. *)
let intervals s =
  { below = Tracker_common.Sweep_snapshot.min_lower s;
    keep =
      Some
        (fun b ->
           Tracker_common.Sweep_snapshot.conflict s
             ~birth:(Block.birth_epoch b) ~retire:(Block.retire_epoch b)) }

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

(* Sweep the store.  [examined] counts only per-block tests; every
   bucket header charges one local step, and a bucket that frees or
   stays whole is never looked into. *)
let sweep_store t { below; keep } =
  Tracker_common.Sweep_stats.note_buckets (List.length t.newest);
  (* Decide-then-commit-then-free: the walk only *condemns* blocks
     and writes no bucket (a tested bucket that keeps some blocks
     becomes a new record), the surviving store is committed in one
     mutation, and the frees run last.  The decide phase charges cost
     (preemption points), so a horizon stop or crash that lands inside
     it leaves every block still in the store; one landing inside the
     free loop can only leak condemned blocks — never leave a freed
     block where a later sweep (the background reclaimer's shutdown
     flush, a pressure sweep from another path) would free it
     again. *)
  let examined = ref 0 and rejects = ref [] and freed = ref 0
  and cut = ref [] in
  (* Descending epochs: the buckets at or above [below] form a
     prefix.  The first bucket under it cuts off the rest, which
     frees whole. *)
  let rec decide = function
    | bk :: rest when bk.epoch >= below -> (
      Prim.local 1;
      match keep with
      | None -> bk :: decide rest
      | Some keep -> (
        let kept =
          List.filter
            (fun b ->
               Prim.local 1;
               incr examined;
               if keep b then true
               else begin
                 rejects := b :: !rejects;
                 incr freed;
                 false
               end)
            bk.blocks
        in
        match kept with
        | [] -> decide rest
        | blocks ->
          { bk with blocks; size = List.length blocks } :: decide rest))
    | old ->
      List.iter
        (fun bk ->
           Prim.local 1;
           freed := !freed + bk.size)
        old;
      cut := old;
      []
  in
  t.newest <- decide t.newest;
  t.count <- t.count - !freed;
  Tracker_common.Sweep_stats.note_sweep ~examined:!examined ~freed:!freed;
  (* Free in walk order, the per-block rejects and then the cut-off
     buckets, newest first: the free order decides which block the
     allocator hands out next, so it is part of every schedule. *)
  let release b =
    t.total_reclaimed <- t.total_reclaimed + 1;
    t.free b
  in
  List.iter release (List.rev !rejects);
  List.iter (fun bk -> List.iter release bk.blocks) !cut;
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
