(* Simulated manual allocator.

   Stands in for jemalloc in the paper's setup: per-thread magazine
   caches (so allocation is contention-free, as jemalloc's tcache
   makes it), explicit [free] with poisoning, and full statistics.
   Two operating modes:

   - [reuse = true]  (default; benchmark mode): freed blocks go to the
     freeing thread's magazine and are reincarnated by later
     allocations.  The allocator is type-preserving by construction —
     an ['a t] only ever recycles ['a Block.t]s — which is precisely
     the guarantee the TagIBR-TPA variant requires (§3.2.1).
   - [reuse = false] (checker mode): blocks are never reused, so a
     reclaimed block stays [Reclaimed] forever and every dangling
     access is detected with certainty.  Tests run in this mode.

   Free-block caching is the Bonwick magazine design jemalloc's tcache
   descends from: each thread holds a [loaded] magazine and a spare
   [previous]; frees fill [loaded], and when both are full a whole
   magazine of [magazine_size] blocks is flushed to a shared depot (a
   Treiber stack of full magazines) in one CAS.  Allocation pops
   [loaded], falls back to swapping in [previous], then to refilling a
   whole magazine from the depot, then to a fresh block.  Cross-thread
   block flow costs O(1/magazine_size) CASes per block instead of a
   shared free-list CAS per block, and every cache keeps a counted
   size so [stats] never walks another thread's lists.

   An optional [capacity] turns the arena into a bounded heap: the
   footprint (Live + Retired blocks; cached free blocks have been
   returned to the arena and do not count) may not exceed it.
   Admission is a *reservation* on an atomic footprint counter —
   fetch-and-add then undo on overshoot — so the bound is strict even
   under concurrent admitters (a plain check-then-increment lets N
   racing threads overshoot by N).  An allocation failing to reserve
   applies backpressure — it invokes the caller's registered
   memory-pressure hook (the tracker's forced sweep) and backs off
   exponentially in virtual time, giving other threads' reclamation a
   chance to land — and only after the retry budget is spent reports
   [Fault.Alloc_exhausted] and aborts the operation by raising
   [Exhausted].

   Statistics live in the per-thread caches, as plain ints only the
   owner writes, and [stats] sums them, as jemalloc's tcache keeps
   per-thread request counts.  Each cache is a [Padded] block, on
   cache lines of its own, so on the real-domains backend an alloc or
   free served by the magazines writes exactly one word that other
   threads also write: [footprint] (plus [peak_footprint] on a new
   high).  That word stays shared on purpose: it is the single
   linearization point that makes capacity admission strict and the
   simulator's peak exact (DESIGN.md §9b). *)

exception Exhausted

(* A per-thread cache: the loaded magazine, a spare that is always
   either full or empty, a count of blocks across both (one word, so
   other threads can read the cache size without touching the lists),
   and the owner's statistics.  Only the owner writes any field (the
   background reclaimer frees on its own slot, [threads]). *)
type 'a cache = {
  mutable loaded : 'a Block.t list;
  mutable loaded_n : int;
  mutable previous : 'a Block.t list;
  mutable previous_n : int;
  mutable count : int;
  mutable allocated : int;      (* alloc calls *)
  mutable fresh : int;          (* allocations served by new blocks *)
  mutable reused : int;         (* allocations served from a cache *)
  mutable freed : int;          (* free calls *)
  mutable mag_hits : int;       (* allocs served from loaded/previous *)
  mutable mag_misses : int;     (* allocs that went to depot or fresh *)
  mutable depot_refills : int;  (* magazines taken from the depot *)
  mutable depot_flushes : int;  (* magazines pushed to the depot *)
}

(* Blocks per magazine; one depot CAS moves this many. *)
let magazine_size = 64

type 'a t = {
  reuse : bool;
  caches : 'a cache array;        (* per-thread magazines and stats *)
  (* Stack of size-tagged magazines.  The overflow path only ever
     pushes full ones; [flush_magazines] (the detach path) pushes
     partials, so each entry carries its block count. *)
  depot : (int * 'a Block.t list) list Atomic.t;
  depot_count : int Atomic.t;               (* blocks in the depot *)
  next_id : int Atomic.t;
  footprint : int Atomic.t;   (* live+retired; admission reserves here *)
  mutable capacity : int option;       (* max live+retired blocks *)
  pressure : (unit -> unit) option array; (* per-thread pressure hooks *)
  retry_budget : int;
  peak_footprint : int Atomic.t;
  (* Touched only when the heap is full. *)
  pressure_retries : int Atomic.t;
  oom_events : int Atomic.t;
}

let create ?(reuse = true) ?capacity ?(retry_budget = 8) ~threads () =
  if threads < 1 then invalid_arg "Alloc.create: threads must be >= 1";
  (match capacity with
   | Some c when c < 1 -> invalid_arg "Alloc.create: capacity must be >= 1"
   | _ -> ());
  {
    reuse;
    caches =
      Array.init threads (fun _ ->
          Ibr_runtime.Padded.copy
            { loaded = []; loaded_n = 0; previous = []; previous_n = 0;
              count = 0; allocated = 0; fresh = 0; reused = 0; freed = 0;
              mag_hits = 0; mag_misses = 0; depot_refills = 0;
              depot_flushes = 0 });
    depot = Atomic.make [];
    depot_count = Atomic.make 0;
    next_id = Atomic.make 0;
    footprint = Atomic.make 0;
    capacity;
    pressure = Array.make threads None;
    retry_budget;
    peak_footprint = Atomic.make 0;
    pressure_retries = Atomic.make 0;
    oom_events = Atomic.make 0;
  }

let threads t = Array.length t.caches

let check_tid t tid =
  if tid < 0 || tid >= Array.length t.caches then
    invalid_arg "Alloc: thread id out of range"

let footprint t = Atomic.get t.footprint

let capacity t = t.capacity

let set_capacity t capacity =
  (match capacity with
   | Some c when c < 1 ->
     invalid_arg "Alloc.set_capacity: capacity must be >= 1"
   | _ -> ());
  t.capacity <- capacity

let set_pressure_hook t ~tid hook =
  check_tid t tid;
  t.pressure.(tid) <- Some hook

(* Base of the exponential backoff ladder, in cycles.  Doubling from
   here over the default 8-retry budget spends ~one scheduling quantum
   in total — long enough for every other thread to get a sweep in. *)
let backoff_base = 64

let rec note_peak t fp =
  let peak = Atomic.get t.peak_footprint in
  if fp > peak && not (Atomic.compare_and_set t.peak_footprint peak fp)
  then note_peak t fp

(* Admission by reservation: fetch-and-add the footprint, undo if that
   overshot the cap.  The peak is taken from the *successful*
   reservation's value, so undone reservations can never inflate it
   past the cap.  On reservation failure, the backpressure ladder
   alternates the caller's pressure hook (the tracker's forced sweep)
   with an exponentially growing virtual-time backoff — each
   [Hooks.step] is a preemption point, so other threads' frees can
   land between attempts.  Admission failure is a reported fault plus
   a graceful abort.  [attempt] counts the pressure retries so far;
   the loops here and below are top-level functions, so an
   allocation allocates nothing of its own (DESIGN.md §1a). *)
let rec admit_capped t ~tid ~cap attempt =
  let f = Atomic.fetch_and_add t.footprint 1 + 1 in
  if f <= cap then note_peak t f
  else begin
    Atomic.decr t.footprint;
    if attempt < t.retry_budget then begin
      Atomic.incr t.pressure_retries;
      Ibr_obs.Probe.pressure ();
      (match t.pressure.(tid) with Some hook -> hook () | None -> ());
      Ibr_runtime.Hooks.step (backoff_base lsl attempt);
      admit_capped t ~tid ~cap (attempt + 1)
    end
    else begin
      Atomic.incr t.oom_events;
      Fault.report Alloc_exhausted
        (Printf.sprintf
           "alloc: %d live+retired blocks at capacity %d after %d \
            pressure retries (tid %d)"
           (footprint t) cap t.retry_budget tid);
      raise Exhausted
    end
  end

let admit t ~tid =
  match t.capacity with
  | None -> note_peak t (Atomic.fetch_and_add t.footprint 1 + 1)
  | Some cap -> admit_capped t ~tid ~cap 0

(* -- magazine machinery (owner-thread only, except the depot) -- *)

let rec depot_push t c ~n mag =
  let cur = Atomic.get t.depot in
  if not (Atomic.compare_and_set t.depot cur ((n, mag) :: cur)) then
    depot_push t c ~n mag
  else begin
    ignore (Atomic.fetch_and_add t.depot_count n);
    c.count <- c.count - n;
    c.depot_flushes <- c.depot_flushes + 1
  end

(* Take a whole magazine from the depot into [loaded]; false when the
   depot is empty. *)
let rec depot_refill t c =
  match Atomic.get t.depot with
  | [] -> false
  (* CAS against the value read, not a reconstruction: a fresh cons
     cell is never physically equal to the stored list. *)
  | ((n, mag) :: rest) as cur ->
    if Atomic.compare_and_set t.depot cur rest then begin
      ignore (Atomic.fetch_and_add t.depot_count (-n));
      c.depot_refills <- c.depot_refills + 1;
      c.loaded <- mag;
      c.loaded_n <- n;
      c.count <- c.count + n;
      true
    end
    else depot_refill t c

(* Pop the head of [loaded] (which the caller has ensured is
   non-empty). *)
let pop_loaded c =
  match c.loaded with
  | [] -> assert false
  | b :: rest ->
    c.loaded <- rest;
    c.loaded_n <- c.loaded_n - 1;
    c.count <- c.count - 1;
    b

(* Make sure [loaded] holds a cached block, counting the hit or miss:
   loaded itself, then the full previous swapped in, then a whole
   magazine refilled from the depot.  False when no cached block
   exists.  A flag rather than an option, so a cache hit allocates
   nothing. *)
let cache_ready t c =
  if c.loaded_n > 0 then begin
    c.mag_hits <- c.mag_hits + 1;
    true
  end
  else if c.previous_n > 0 then begin
    c.loaded <- c.previous;
    c.loaded_n <- c.previous_n;
    c.previous <- [];
    c.previous_n <- 0;
    c.mag_hits <- c.mag_hits + 1;
    true
  end
  else begin
    c.mag_misses <- c.mag_misses + 1;
    depot_refill t c
  end

(* Push one freed block.  When [loaded] is full, rotate it to
   [previous]; when both are full, flush the (full) [previous] to the
   depot first — one CAS moves [magazine_size] blocks. *)
let cache_push t c b =
  if c.loaded_n >= magazine_size then begin
    if c.previous_n > 0 then depot_push t c ~n:c.previous_n c.previous;
    c.previous <- c.loaded;
    c.previous_n <- c.loaded_n;
    c.loaded <- [];
    c.loaded_n <- 0
  end;
  c.loaded <- b :: c.loaded;
  c.loaded_n <- c.loaded_n + 1;
  c.count <- c.count + 1

let alloc t ~tid payload =
  check_tid t tid;
  admit t ~tid;
  let c = t.caches.(tid) in
  c.allocated <- c.allocated + 1;
  (* The probe fires before [Prim.charge_alloc]: the charge's
     [Hooks.step] is a preemption point where the horizon can unwind
     the fiber, and the event must stay atomic with the counter
     increments above (probes never step). *)
  if t.reuse && cache_ready t c then begin
    let b = pop_loaded c in
    Block.reincarnate b payload;
    c.reused <- c.reused + 1;
    Ibr_obs.Probe.alloc ~block:(Block.id b) ~reused:true;
    Prim.charge_alloc ~reused:true;
    b
  end
  else begin
    c.fresh <- c.fresh + 1;
    let b = Block.make ~id:(Atomic.fetch_and_add t.next_id 1) payload in
    Ibr_obs.Probe.alloc ~block:(Block.id b) ~reused:false;
    Prim.charge_alloc ~reused:false;
    b
  end

(* Reclaim a retired block: poison it and (in reuse mode) cache it. *)
let free t ~tid b =
  check_tid t tid;
  Block.transition_reclaim b;
  let c = t.caches.(tid) in
  c.freed <- c.freed + 1;
  Atomic.decr t.footprint;
  Ibr_obs.Probe.reclaim ~block:(Block.id b) ~unpublished:false;
  Prim.charge_free ();
  if t.reuse then cache_push t c b

(* Reclaim a block that was never published (lost install CAS). *)
let free_unpublished t ~tid b =
  check_tid t tid;
  Block.transition_reclaim_unpublished b;
  let c = t.caches.(tid) in
  c.freed <- c.freed + 1;
  Atomic.decr t.footprint;
  Ibr_obs.Probe.reclaim ~block:(Block.id b) ~unpublished:true;
  Prim.charge_free ();
  if t.reuse then cache_push t c b

(* Detach path: return thread [tid]'s cached free blocks to the shared
   depot so they stay allocatable after the thread leaves.  Only the
   magazine owner may walk its lists, so a departing thread must do
   this itself — otherwise its cached blocks are stranded until (and
   unless) the census slot is reused.  Partial magazines are pushed
   as-is; the depot's size tags exist for exactly this call. *)
let flush_magazines t ~tid =
  check_tid t tid;
  let c = t.caches.(tid) in
  let flush blocks n = if n > 0 then depot_push t c ~n blocks in
  flush c.loaded c.loaded_n;
  c.loaded <- [];
  c.loaded_n <- 0;
  flush c.previous c.previous_n;
  c.previous <- [];
  c.previous_n <- 0

type stats = {
  allocated : int;
  fresh : int;
  reused : int;
  freed : int;
  live : int;       (* footprint = allocated - freed: Live or Retired *)
  cached : int;     (* blocks sitting in magazines and the depot *)
  peak_footprint : int;  (* high-water mark of live *)
  pressure_retries : int;
  oom_events : int;
  mag_hits : int;
  mag_misses : int;
  depot_refills : int;
  depot_flushes : int;
}

(* Sums of the per-thread shards, counted at push/pop: no walks over
   other threads' lists.  Exact once the writers have quiesced (joined
   domains, or any point of a simulated run).  [live] reads the one
   shared word instead, so a mid-run read on real domains (the
   watchdog's) is a value the footprint actually held. *)
let stats t =
  let sum f = Array.fold_left (fun n c -> n + f c) 0 t.caches in
  {
    allocated = sum (fun c -> c.allocated);
    fresh = sum (fun c -> c.fresh);
    reused = sum (fun c -> c.reused);
    freed = sum (fun c -> c.freed);
    live = Atomic.get t.footprint;
    cached = sum (fun c -> c.count) + Atomic.get t.depot_count;
    peak_footprint = Atomic.get t.peak_footprint;
    pressure_retries = Atomic.get t.pressure_retries;
    oom_events = Atomic.get t.oom_events;
    mag_hits = sum (fun c -> c.mag_hits);
    mag_misses = sum (fun c -> c.mag_misses);
    depot_refills = sum (fun c -> c.depot_refills);
    depot_flushes = sum (fun c -> c.depot_flushes);
  }

(* Metric registration: allocator stats are instance-scoped, so they
   are gauges the harness publishes at end of run (see Ibr_obs.Metrics
   for the order-key scheme; these orders pin the legacy CSV layout). *)
let m_allocated = Ibr_obs.Metrics.register_gauge ~name:"allocated" ~order:100
let m_freed = Ibr_obs.Metrics.register_gauge ~name:"freed" ~order:110
let m_live = Ibr_obs.Metrics.register_gauge ~name:"live" ~order:120
let m_cached = Ibr_obs.Metrics.register_gauge ~name:"cached" ~order:130
let m_oom = Ibr_obs.Metrics.register_gauge ~name:"oom_events" ~order:600

let m_retries =
  Ibr_obs.Metrics.register_gauge ~name:"pressure_retries" ~order:610

let m_peak = Ibr_obs.Metrics.register_gauge ~name:"peak_footprint" ~order:620
let m_hits = Ibr_obs.Metrics.register_gauge ~name:"mag_hits" ~order:630
let m_misses = Ibr_obs.Metrics.register_gauge ~name:"mag_misses" ~order:640

let m_refills =
  Ibr_obs.Metrics.register_gauge ~name:"depot_refills" ~order:650

let m_flushes =
  Ibr_obs.Metrics.register_gauge ~name:"depot_flushes" ~order:660

let publish_stats (s : stats) =
  m_allocated := s.allocated;
  m_freed := s.freed;
  m_live := s.live;
  m_cached := s.cached;
  m_oom := s.oom_events;
  m_retries := s.pressure_retries;
  m_peak := s.peak_footprint;
  m_hits := s.mag_hits;
  m_misses := s.mag_misses;
  m_refills := s.depot_refills;
  m_flushes := s.depot_flushes

let pp_stats ppf s =
  Fmt.pf ppf
    "alloc=%d (fresh=%d reused=%d) freed=%d live=%d cached=%d peak=%d \
     mag=%d/%d depot=%d/%d%s"
    s.allocated s.fresh s.reused s.freed s.live s.cached s.peak_footprint
    s.mag_hits s.mag_misses s.depot_refills s.depot_flushes
    (if s.pressure_retries = 0 && s.oom_events = 0 then ""
     else Printf.sprintf " retries=%d oom=%d" s.pressure_retries
            s.oom_events)
