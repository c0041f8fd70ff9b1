(* Pieces shared by all trackers: the reservation-table snapshots used
   by [empty] and the sweep telemetry the harness reports.

   The sweep path is the hot loop of every scheme's [empty]: one
   conflict test per retired block.  A naive test re-scans the whole
   reservation table per block, making a sweep O(retired x threads).
   [Sweep_snapshot] instead sorts and merges the reservations once per
   sweep, so each block's test is a binary search — O(retired x log T)
   — which is what keeps reclamation cheap at the 72+ thread counts
   the paper's Fig. 8/9 stress.  The linear interval predicate is kept
   ([Interval_res.conflict_with_snapshot]) as the differential-testing
   oracle and for the old-vs-new ablation bench. *)

(* Global sweep telemetry, accumulated by every tracker instance
   (atomics: the domains backend sweeps in parallel), read through the
   metric registry: runs report the delta across their measured
   phase. *)
module Sweep_stats = struct
  let sweeps = Atomic.make 0           (* sweeps actually run *)
  let examined = Atomic.make 0         (* blocks tested one by one *)
  let freed = Atomic.make 0            (* blocks handed to free *)
  let snapshot_entries = Atomic.make 0 (* reservation cells read *)
  let snapshot_cycles = Atomic.make 0  (* modelled snapshot cycles *)
  let buckets = Atomic.make 0          (* limbo buckets, summed per sweep *)

  let note_sweep ~examined:e ~freed:f =
    Atomic.incr sweeps;
    ignore (Atomic.fetch_and_add examined e);
    ignore (Atomic.fetch_and_add freed f)

  let note_snapshot ~entries ~cycles =
    ignore (Atomic.fetch_and_add snapshot_entries entries);
    ignore (Atomic.fetch_and_add snapshot_cycles cycles)

  let note_buckets n = ignore (Atomic.fetch_and_add buckets n)

  let () =
    let reg name order a =
      Ibr_obs.Metrics.register_counter ~name ~order (fun () -> Atomic.get a)
    in
    reg "sweeps" 400 sweeps;
    reg "sweep_examined" 410 examined;
    reg "sweep_freed" 420 freed;
    reg "sweep_snapshot_entries" 430 snapshot_entries;
    reg "sweep_snapshot_cycles" 440 snapshot_cycles;
    reg "sweep_buckets" 460 buckets
end

(* Snapshot an [int Atomic.t array] reservation table, charging the
   cross-thread scan cost per entry. *)
let snapshot_reservations (arr : int Atomic.t array) =
  let r = Array.map (fun a -> Prim.charge_scan (); Atomic.get a) arr in
  Sweep_stats.note_snapshot ~entries:(Array.length arr)
    ~cycles:(Array.length arr * !Prim.costs.Ibr_runtime.Cost.scan_reservation);
  r

(* A once-per-sweep digest of a reservation table: the reserved
   intervals, sorted by lower endpoint and merged into disjoint runs,
   so a block's conflict test is one binary search instead of a scan
   of every thread's slot. *)
module Sweep_snapshot = struct
  type t = {
    los : int array;  (* merged interval lower endpoints, ascending *)
    his : int array;  (* matching upper endpoints; also ascending *)
  }

  let length t = Array.length t.los

  (* Smallest reserved lower endpoint ([max_int] when nothing is
     reserved).  A block whose retire epoch precedes it cannot conflict
     with any interval — the bound of [Reclaimer.intervals]. *)
  let min_lower t = if Array.length t.los = 0 then max_int else t.los.(0)

  (* Merge a sorted-by-lower array of [n] (lo, hi) pairs in place;
     adjacent integer intervals ([1,2] and [3,4]) merge too, which is
     sound because block lifetimes are integer intervals.  Returns the
     merged prefix length. *)
  let merge_sorted los his n =
    if n = 0 then 0
    else begin
      let m = ref 0 in
      for i = 1 to n - 1 do
        let hi = his.(!m) in
        if hi = max_int || los.(i) <= hi + 1 then begin
          if his.(i) > hi then his.(!m) <- his.(i)
        end else begin
          incr m;
          los.(!m) <- los.(i);
          his.(!m) <- his.(i)
        end
      done;
      !m + 1
    end

  (* Sort the parallel endpoint arrays by lower endpoint (ties in any
     order: equal lowers always merge).  Insertion sort for the common
     small tables — straight-line int code, no closure calls or
     boxing — falling back to an index heapsort when the table is big
     enough for O(k^2) to lose. *)
  let insertion_cutoff = 96

  let sort_pairs los his n =
    if n <= insertion_cutoff then
      for i = 1 to n - 1 do
        let lo = los.(i) and hi = his.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && los.(!j) > lo do
          los.(!j + 1) <- los.(!j);
          his.(!j + 1) <- his.(!j);
          decr j
        done;
        los.(!j + 1) <- lo;
        his.(!j + 1) <- hi
      done
    else begin
      let idx = Array.init n (fun i -> i) in
      Array.sort (fun i j -> Int.compare los.(i) los.(j)) idx;
      let slos = Array.init n (fun i -> los.(idx.(i))) in
      let shis = Array.init n (fun i -> his.(idx.(i))) in
      Array.blit slos 0 los 0 n;
      Array.blit shis 0 his 0 n
    end

  let of_pairs los his n =
    (* The cost model charges one local step per reserved entry for
       the sort+merge. *)
    Prim.local n;
    sort_pairs los his n;
    let m = merge_sorted los his n in
    { los = Array.sub los 0 m; his = Array.sub his 0 m }

  (* Build from single-epoch reservations (HE eras, POIBR epochs):
     each reserved value [e] is the degenerate interval [e, e]; [none]
     is the scheme's empty-slot sentinel. *)
  let of_points ~none values =
    let los = Array.make (Array.length values) 0 in
    let k = ref 0 in
    for i = 0 to Array.length values - 1 do
      if values.(i) <> none then begin
        los.(!k) <- values.(i);
        incr k
      end
    done;
    of_pairs los (Array.sub los 0 !k) !k

  (* Is [birth, retire] intersected by any reserved interval?  The
     merged intervals are disjoint and sorted, so both endpoint arrays
     ascend: binary-search the first interval whose upper endpoint
     reaches [birth], then a single lower-endpoint comparison
     decides.  O(log T) per block. *)
  let conflict t ~birth ~retire =
    let n = Array.length t.los in
    if n = 0 then false
    else begin
      (* smallest i with his.(i) >= birth *)
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if t.his.(mid) >= birth then hi := mid else lo := mid + 1
      done;
      !lo < n && t.los.(!lo) <= retire
    end
end

(* Per-thread [lower, upper] interval reservations, shared by the
   TagIBR variants and 2GEIBR (Fig. 5 lines 1–2, 16–17). *)
module Interval_res = struct
  type t = {
    lower : int Atomic.t array;
    upper : int Atomic.t array;
  }

  let create threads =
    let cell _ = Ibr_runtime.Padded.copy (Atomic.make max_int) in
    { lower = Array.init threads cell; upper = Array.init threads cell }

  (* start_op: lower = upper = current epoch (Fig. 5 line 43).  Upper
     first: a sweep reads a [max_int] lower as an empty slot, so a
     thread that dies between the two writes leaves nothing reserved.
     Lower first would leave [e, max_int], which pins every block
     retired after [e] for the rest of the run.  The thread
     dereferences nothing before both writes land. *)
  let start t ~tid e =
    Prim.write t.upper.(tid) e;
    Prim.write t.lower.(tid) e

  let clear t ~tid =
    Prim.write t.lower.(tid) max_int;
    Prim.write t.upper.(tid) max_int

  let upper_cell t ~tid = t.upper.(tid)

  (* Legacy linear-scan predicate: snapshot both endpoint arrays and
     test each block against every slot (Fig. 5 line 26, inclusive
     endpoints for safety).  O(threads) per block — kept as the
     differential-testing oracle for [sweep_snapshot] and for the
     `ablation:sweep` old-vs-new bench. *)
  let conflict_with_snapshot t =
    let lower = snapshot_reservations t.lower in
    let upper = snapshot_reservations t.upper in
    fun b ->
      let birth = Block.birth_epoch b and retire = Block.retire_epoch b in
      let n = Array.length lower in
      let rec check i =
        i < n && ((birth <= upper.(i) && retire >= lower.(i)) || check (i + 1))
      in
      check 0

  (* Sorted-snapshot digest of the table (one O(T log T) build, then
     O(log T) per block).  Reads each thread's endpoint pair in one
     fused pass — same scan charges as the two-array snapshot, fewer
     intermediate arrays and a more consistent pair per slot. *)
  let sweep_snapshot t =
    let n = Array.length t.lower in
    let los = Array.make n 0 and his = Array.make n 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      Prim.charge_scan ();
      let lo = Atomic.get t.lower.(i) in
      Prim.charge_scan ();
      let hi = Atomic.get t.upper.(i) in
      if lo <> max_int then begin
        los.(!k) <- lo;
        (* A mid-[start] slot still reads as empty: [start] writes
           the lower endpoint last.  The upper is read after the lower
           and epochs only grow, so it is never below it; the guard
           only keeps a torn pair from inverting the interval. *)
        his.(!k) <- (if hi < lo then lo else hi);
        incr k
      end
    done;
    Sweep_stats.note_snapshot ~entries:(2 * n)
      ~cycles:(2 * n * !Prim.costs.Ibr_runtime.Cost.scan_reservation);
    Sweep_snapshot.of_pairs los his !k
end

(* Dynamic thread census: the slot manager behind every tracker's
   [attach]/[detach].  The fixed reservation tables stay fixed-size
   (capacity = the [threads] the tracker was created with); what
   becomes dynamic is *occupancy* — which slots currently belong to a
   live thread.  A joiner claims the lowest free slot with a CAS; a
   leaver releases its slot only after the tracker has published a
   quiescent reservation for it, so the release doubles as the
   happens-before edge that makes slot reuse safe: the next occupant
   can never alias a reservation the previous one still held.

   Each slot also carries a persistent payload ['p] (the tracker's
   per-slot reclaimer path), created on first occupancy and *adopted*
   by later occupants.  Retired blocks a departing thread could not
   yet free therefore stay owned by the slot — swept by whoever
   occupies it next — instead of leaking into a structure nobody
   sweeps.

   The claim CAS and the release write go through [Prim] so they are
   charged and preemptible: under [Ibr_check], attach/detach races
   are explored like any other shared access. *)
module Census = struct
  type 'p t = {
    active : bool Atomic.t array;
    generation : int array;     (* attaches ever seen, per slot *)
    paths : 'p option array;    (* owner-written after a claim *)
    attaches : int Atomic.t;
    detaches : int Atomic.t;
  }

  let create capacity =
    if capacity < 1 then invalid_arg "Census.create: capacity must be >= 1";
    {
      active = Array.init capacity (fun _ -> Atomic.make false);
      generation = Array.make capacity 0;
      paths = Array.make capacity None;
      attaches = Atomic.make 0;
      detaches = Atomic.make 0;
    }

  let capacity t = Array.length t.active

  let check_tid t tid =
    if tid < 0 || tid >= capacity t then
      invalid_arg "Census: thread id out of range"

  let is_active t ~tid =
    check_tid t tid;
    Atomic.get t.active.(tid)

  let active_count t =
    Array.fold_left (fun n a -> if Atomic.get a then n + 1 else n) 0 t.active

  let attaches t = Atomic.get t.attaches
  let detaches t = Atomic.get t.detaches

  let generation t ~tid =
    check_tid t tid;
    t.generation.(tid)

  (* Claim the lowest free slot.  The CAS is charged (a preemption
     point), so two racing joiners resolve like any other contended
     claim: the loser moves on to the next slot.  [make] runs only on
     a slot's first-ever occupancy. *)
  let try_attach t ~make =
    let n = capacity t in
    let rec go i =
      if i >= n then None
      else if Prim.cas t.active.(i) false true then begin
        t.generation.(i) <- t.generation.(i) + 1;
        Atomic.incr t.attaches;
        let p =
          match t.paths.(i) with
          | Some p -> p
          | None ->
            let p = make i in
            t.paths.(i) <- Some p;
            p
        in
        Some (i, p)
      end
      else go (i + 1)
    in
    go 0

  (* Release a slot.  Only the occupant may call this, and only after
     publishing a quiescent reservation for [tid] — the write below
     is what makes that publication visible to the next claimant. *)
  let detach t ~tid =
    check_tid t tid;
    if not (Atomic.get t.active.(tid)) then
      invalid_arg "Census.detach: slot is not active";
    Atomic.incr t.detaches;
    Prim.write t.active.(tid) false
end
