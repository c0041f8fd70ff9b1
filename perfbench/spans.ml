(* Benchmark-owned span accumulators behind the [Timed] wrappers.

   Spans stay out of [Ibr_obs.Probe]: on the Domains backend its shared
   ring stamps every event with tid 0 and time 0.  A span is added
   instead into the accumulator of the census slot that made the call
   ([handle_tid]).  The thread that registers a slot allocates that
   slot's accumulator and is the only thread that writes it, so the hot
   path needs no synchronisation and two domains never write the same
   cache line.

   The clock is chosen per leg.  On the simulator it is [Hooks.now], the
   calling fiber's own executed cycles; reading it never steps, so a
   timed simulator run is bit-identical to an untimed one.  On Domains
   it is [Monotonic.now_ns]; every span then also holds the cost of one
   clock read, which [clock_cost_ns] calibrates. *)

open Ibr_runtime

type acc = {
  domain : int;  (* the domain that registered the slot *)
  lat : int array;  (* op-latency histogram (see [bucket]); [||] on the sim *)
  mutable ops : int;
  mutable op_time : int;
  mutable gaps : int;  (* harness loop time between consecutive ops *)
  mutable gap_time : int;
  mutable last_end : int;  (* -1 before the first op *)
  mutable open_start : int;  (* start of the op in flight, -1 if none *)
  mutable backwards : int;  (* ops that started before the previous one ended *)
  mutable foreign : int;  (* ops timed on another domain than [domain] *)
  mutable inserted : int;  (* successful inserts *)
  mutable removed : int;  (* successful removes *)
  mutable bad_scans : int;  (* scans whose result failed the output gate *)
  mutable spans : int;  (* tracker spans of every kind *)
  mutable reads : int;
  mutable read_time : int;
  mutable starts : int;  (* start_op calls: operation attempts *)
  mutable bracket_time : int;  (* start_op plus end_op *)
  mutable allocs : int;  (* allocs during which the epoch stayed put *)
  mutable alloc_time : int;
  mutable advances : int;  (* allocs during which the epoch moved *)
  mutable advance_time : int;
  mutable retires : int;  (* retires that did not sweep *)
  mutable retire_time : int;
  mutable sweeps : int;  (* retires that swept their handle's store *)
  mutable sweep_time : int;
  mutable cases : int;
  mutable cas_fails : int;
  mutable cas_time : int;
}

(* Log-linear latency buckets: exact below 512 ns, then 256 buckets per
   power of two (0.4% resolution) up to 2^40 ns. *)
let lat_buckets = 512 + (32 * 256)

let msb v =
  let rec go v n = if v <= 1 then n else go (v lsr 1) (n + 1) in
  go v 0

let bucket ns =
  if ns < 512 then max 0 ns
  else
    let e = min 32 (msb ns - 8) in
    min (lat_buckets - 1) (512 + ((e - 1) * 256) + ((ns lsr e) - 256))

(* The middle of bucket [i], in ns. *)
let bucket_mid i =
  if i < 512 then float_of_int i +. 0.5
  else
    let e = ((i - 512) / 256) + 1 and m = 256 + ((i - 512) mod 256) in
    (float_of_int m +. 0.5) *. float_of_int (1 lsl e)

let make ~domain ~lat =
  { domain; lat; ops = 0; op_time = 0; gaps = 0; gap_time = 0;
    last_end = -1; open_start = -1; backwards = 0; foreign = 0;
    inserted = 0; removed = 0; bad_scans = 0; spans = 0; reads = 0;
    read_time = 0; starts = 0; bracket_time = 0; allocs = 0; alloc_time = 0;
    advances = 0; advance_time = 0; retires = 0; retire_time = 0;
    sweeps = 0; sweep_time = 0; cases = 0; cas_fails = 0; cas_time = 0 }

(* The background reclaimer's drain calls (one service thread). *)
type service = {
  mutable drains : int;
  mutable drain_time : int;
  mutable open_start : int;  (* start of the drain in flight, -1 if none *)
  mutable idle : int;  (* drains that found every queue empty *)
  mutable backlog_peak : int;  (* most blocks pending at a drain's start *)
}

(* -- per-leg state, reset by [init] -- *)

let clock : (unit -> int) ref = ref Monotonic.now_ns
let now () = !clock ()
let accs : acc array ref = ref [||]
let begun = Atomic.make false
let on_begin : (unit -> unit) ref = ref ignore
let setup_start = ref 0
let setup_end = ref 0
let prefill_inserted = ref 0

let service =
  { drains = 0; drain_time = 0; open_start = -1; idle = 0; backlog_peak = 0 }

let init ~threads ~sim =
  clock := if sim then Hooks.now else Monotonic.now_ns;
  accs :=
    Array.init threads (fun _ ->
      make ~domain:(-1)
        ~lat:(if sim then [||] else Array.make lat_buckets 0));
  Atomic.set begun false;
  on_begin := ignore;
  setup_start := 0;
  setup_end := 0;
  prefill_inserted := 0;
  service.drains <- 0;
  service.drain_time <- 0;
  service.open_start <- -1;
  service.idle <- 0;
  service.backlog_peak <- 0

let acc tid = !accs.(tid)

(* A fresh accumulator for slot [tid], allocated by (and owned by) the
   calling domain.  It keeps the slot's latency buffer. *)
let renew tid =
  let a = make ~domain:(Domain.self () :> int) ~lat:!accs.(tid).lat in
  !accs.(tid) <- a;
  a

(* The first measured registration ends set-up and takes the leg's
   baselines. *)
let begin_measured () =
  if Atomic.compare_and_set begun false true then begin
    setup_end := Monotonic.now_ns ();
    !on_begin ()
  end

(* -- operation spans (the rideable wrapper) -- *)

let op_begin a =
  let t = now () in
  if a.last_end >= 0 then begin
    if t < a.last_end then a.backwards <- a.backwards + 1;
    a.gaps <- a.gaps + 1;
    a.gap_time <- a.gap_time + (t - a.last_end)
  end;
  if (Domain.self () :> int) <> a.domain then a.foreign <- a.foreign + 1;
  a.open_start <- t;
  t

let op_end a t0 =
  let t = now () in
  let d = t - t0 in
  a.ops <- a.ops + 1;
  a.op_time <- a.op_time + d;
  if Array.length a.lat > 0 then begin
    let b = bucket d in
    a.lat.(b) <- a.lat.(b) + 1
  end;
  a.open_start <- -1;
  a.last_end <- t

(* -- tracker spans (the tracker wrapper) -- *)

let read a d =
  a.spans <- a.spans + 1;
  a.reads <- a.reads + 1;
  a.read_time <- a.read_time + d

let bracket a ~start d =
  a.spans <- a.spans + 1;
  if start then a.starts <- a.starts + 1;
  a.bracket_time <- a.bracket_time + d

let alloc a ~advanced d =
  a.spans <- a.spans + 1;
  if advanced then begin
    a.advances <- a.advances + 1;
    a.advance_time <- a.advance_time + d
  end
  else begin
    a.allocs <- a.allocs + 1;
    a.alloc_time <- a.alloc_time + d
  end

let retire a ~swept d =
  a.spans <- a.spans + 1;
  if swept then begin
    a.sweeps <- a.sweeps + 1;
    a.sweep_time <- a.sweep_time + d
  end
  else begin
    a.retires <- a.retires + 1;
    a.retire_time <- a.retire_time + d
  end

let cas a ~ok d =
  a.spans <- a.spans + 1;
  a.cases <- a.cases + 1;
  if not ok then a.cas_fails <- a.cas_fails + 1;
  a.cas_time <- a.cas_time + d

let tracker_time a =
  a.read_time + a.bracket_time + a.alloc_time + a.advance_time
  + a.retire_time + a.sweep_time + a.cas_time

(* Time one drain of the background reclaimer; drains before the
   measured phase (the engine's pre-drain) pass through untimed.  A
   starved reclaimer can still be inside a drain when the simulator's
   horizon ends the run, so the drain in flight is left in
   [open_start]. *)
let drain (svc : Ibr_core.Handoff.service) =
  if not (Atomic.get begun) then svc.drain ()
  else begin
    let s = service in
    let backlog = svc.pending () in
    if backlog > s.backlog_peak then s.backlog_peak <- backlog;
    let t0 = now () in
    s.open_start <- t0;
    let n = svc.drain () in
    s.drain_time <- s.drain_time + (now () - t0);
    s.open_start <- -1;
    s.drains <- s.drains + 1;
    if n = 0 then s.idle <- s.idle + 1;
    n
  end

(* -- reading the accumulators -- *)

let sum accs =
  let timed = Array.exists (fun a -> Array.length a.lat > 0) accs in
  let t =
    make ~domain:(-1) ~lat:(Array.make (if timed then lat_buckets else 0) 0)
  in
  Array.iter
    (fun a ->
      Array.iteri (fun i n -> t.lat.(i) <- t.lat.(i) + n) a.lat;
      t.ops <- t.ops + a.ops;
      t.op_time <- t.op_time + a.op_time;
      t.gaps <- t.gaps + a.gaps;
      t.gap_time <- t.gap_time + a.gap_time;
      t.backwards <- t.backwards + a.backwards;
      t.foreign <- t.foreign + a.foreign;
      t.inserted <- t.inserted + a.inserted;
      t.removed <- t.removed + a.removed;
      t.bad_scans <- t.bad_scans + a.bad_scans;
      t.spans <- t.spans + a.spans;
      t.reads <- t.reads + a.reads;
      t.read_time <- t.read_time + a.read_time;
      t.starts <- t.starts + a.starts;
      t.bracket_time <- t.bracket_time + a.bracket_time;
      t.allocs <- t.allocs + a.allocs;
      t.alloc_time <- t.alloc_time + a.alloc_time;
      t.advances <- t.advances + a.advances;
      t.advance_time <- t.advance_time + a.advance_time;
      t.retires <- t.retires + a.retires;
      t.retire_time <- t.retire_time + a.retire_time;
      t.sweeps <- t.sweeps + a.sweeps;
      t.sweep_time <- t.sweep_time + a.sweep_time;
      t.cases <- t.cases + a.cases;
      t.cas_fails <- t.cas_fails + a.cas_fails;
      t.cas_time <- t.cas_time + a.cas_time)
    accs;
  t

let samples lat = Array.fold_left ( + ) 0 lat

(* The [q]-quantile of a latency histogram in ns (bucket middle). *)
let quantile_ns lat q =
  let n = samples lat in
  if n = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    let last = Array.length lat - 1 in
    let rec go i seen =
      let seen = seen + lat.(i) in
      if seen >= rank || i = last then i else go (i + 1) seen
    in
    bucket_mid (go 0 0)
  end

(* Nanoseconds one [Monotonic.now_ns] read adds to a span: the fastest
   of five 100k-read loops. *)
let clock_cost_ns () =
  let n = 100_000 in
  let best = ref max_int in
  for _ = 1 to 5 do
    let t0 = Monotonic.now_ns () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Monotonic.now_ns ()))
    done;
    best := min !best (Monotonic.now_ns () - t0)
  done;
  float_of_int !best /. float_of_int n
