(* Typed event tracing with a zero-cost-when-disabled discipline.

   Every emitter is a function whose body starts with a single load
   and branch on [live]; when tracing and histograms are both off,
   that branch is the entire cost — no allocation, no closure, no
   timestamp read.  Probes never call [Hooks.step], so enabling them
   cannot perturb virtual time: a traced run and an untraced run of
   the same seed produce bit-identical results (the reconciliation
   test and the trace-overhead ablation both lean on this).

   Events land in bounded per-thread ring buffers (drop-oldest; the
   drop count is reported so a truncated trace is never mistaken for
   a complete one).  The clock and thread-id sources are injected by
   [Hooks] at link time — this library sits below the runtime, so it
   cannot name them itself. *)

type sweep_phase = Prepare | Snapshot | Scan

let phase_name = function
  | Prepare -> "prepare"
  | Snapshot -> "snapshot"
  | Scan -> "scan"

type event =
  | Alloc of { block : int; reused : bool }
  | Retire of { block : int }
  | Reclaim of { block : int; unpublished : bool }
  | Reserve of { slot : int }
  | Unreserve of { slot : int }
  | Epoch_advance of { epoch : int }
  | Sweep_begin of { phase : sweep_phase }
  | Sweep_end of { phase : sweep_phase; freed : int }
  | Crash
  | Ejection of { victim : int }
  | Neutralization of { victim : int }
  | Pressure
  | Op_begin
  | Op_end
  | Handoff of { block : int }
  | Drain of { drained : int }

type record = { ts : int; tid : int; ev : event }

(* -- clock / tid injection (wired by Ibr_runtime.Hooks at init) -- *)

let clock : (unit -> int) ref = ref (fun () -> 0)
let tid_source : (unit -> int) ref = ref (fun () -> 0)
let set_clock f = clock := f
let set_tid f = tid_source := f

(* Told when cost attribution turns on or off: primitives skip their
   charge bookkeeping entirely while nobody counts it. *)
let attribution_listener : (bool -> unit) ref = ref ignore
let set_attribution_listener f = attribution_listener := f

(* -- state -- *)

type ring = {
  buf : record array;
  mutable head : int;          (* next write position *)
  mutable len : int;
  mutable dropped : int;
}

let dummy = { ts = 0; tid = 0; ev = Crash }

let tracing = ref false
let histing = ref false

(* The one flag every emitter branches on. *)
let live = ref false

let ring_capacity = ref 65_536
let rings : ring array ref = ref [||]

let ring_for tid =
  let n = Array.length !rings in
  if tid >= n then begin
    (* A late registrant (the watchdog fiber, an extra domain): grow. *)
    let grown =
      Array.init (tid + 1) (fun i ->
          if i < n then !rings.(i)
          else
            { buf = Array.make !ring_capacity dummy; head = 0; len = 0;
              dropped = 0 })
    in
    rings := grown
  end;
  !rings.(tid)

let push r rec_ =
  let cap = Array.length r.buf in
  r.buf.(r.head) <- rec_;
  r.head <- (r.head + 1) mod cap;
  if r.len < cap then r.len <- r.len + 1 else r.dropped <- r.dropped + 1

(* -- retire-age histogram (lazy; keeps the golden CSV columns) -- *)

let age_order = 700
let retire_age : Metrics.hist option ref = ref None
let retire_ts : (int, int) Hashtbl.t = Hashtbl.create 1024

(* -- retire-path cost histogram (lazy, same discipline): virtual
   cycles the mutator spends inside one [retire] call, including any
   inline sweep it triggers — the quantity the background reclaimer
   moves off the critical path. *)

let cost_order = 710
let retire_cost : Metrics.hist option ref = ref None

(* -- per-primitive cost attribution, bucketed by the Cost fields -- *)

type cost_kind =
  | K_read | K_hot_read | K_write | K_cas | K_cas_fail | K_faa | K_fence
  | K_alloc_fresh | K_alloc_reuse | K_free | K_scan_reservation | K_local

let cost_kinds =
  [ K_read; K_hot_read; K_write; K_cas; K_cas_fail; K_faa; K_fence;
    K_alloc_fresh; K_alloc_reuse; K_free; K_scan_reservation; K_local ]

let cost_kind_name = function
  | K_read -> "read" | K_hot_read -> "hot_read" | K_write -> "write"
  | K_cas -> "cas" | K_cas_fail -> "cas_fail" | K_faa -> "faa"
  | K_fence -> "fence" | K_alloc_fresh -> "alloc_fresh"
  | K_alloc_reuse -> "alloc_reuse" | K_free -> "free"
  | K_scan_reservation -> "scan_reservation" | K_local -> "local"

let kind_index = function
  | K_read -> 0 | K_hot_read -> 1 | K_write -> 2 | K_cas -> 3 | K_cas_fail -> 4
  | K_faa -> 5 | K_fence -> 6 | K_alloc_fresh -> 7 | K_alloc_reuse -> 8
  | K_free -> 9 | K_scan_reservation -> 10 | K_local -> 11

let charge_count = Array.make 12 0
let charge_cycles = Array.make 12 0

(* -- lifecycle -- *)

let refresh_live () = live := !tracing || !histing

let set_histing on =
  if on <> !histing then begin
    histing := on;
    !attribution_listener on
  end;
  refresh_live ()

let start ?(capacity = 65_536) ~threads () =
  let cap = max 16 capacity in
  ring_capacity := cap;
  rings :=
    Array.init threads (fun _ ->
        { buf = Array.make cap dummy; head = 0; len = 0; dropped = 0 });
  tracing := true;
  refresh_live ()

let enable_hist () =
  (match !retire_age with
   | Some _ -> ()
   | None ->
     retire_age := Some (Metrics.register_histogram ~name:"retire_age"
                           ~order:age_order));
  (match !retire_cost with
   | Some _ -> ()
   | None ->
     retire_cost := Some (Metrics.register_histogram ~name:"retire_cost"
                            ~order:cost_order));
  Hashtbl.reset retire_ts;
  Array.fill charge_count 0 12 0;
  Array.fill charge_cycles 0 12 0;
  set_histing true

let stop () =
  tracing := false;
  set_histing false

let enabled () = !tracing
let hist_enabled () = !histing

let dropped () =
  Array.fold_left (fun acc r -> acc + r.dropped) 0 !rings

(* Per-thread records, oldest first. *)
let per_thread () =
  Array.to_list !rings
  |> List.mapi (fun tid r ->
      let cap = Array.length r.buf in
      let start = (r.head - r.len + cap * 2) mod cap in
      (tid, Array.init r.len (fun i -> r.buf.((start + i) mod cap))))
  |> List.filter (fun (_, a) -> Array.length a > 0)

(* All records merged in timestamp order (stable across threads). *)
let events () =
  per_thread ()
  |> List.concat_map (fun (_, a) -> Array.to_list a)
  |> List.stable_sort (fun a b -> compare a.ts b.ts)

let age_hist () = !retire_age
let cost_hist () = !retire_cost

let charges () =
  List.filter_map
    (fun k ->
       let i = kind_index k in
       if charge_count.(i) = 0 then None
       else Some (k, charge_count.(i), charge_cycles.(i)))
    cost_kinds

(* -- emitters -- *)

let record ev =
  if !tracing then begin
    let tid = !tid_source () in
    push (ring_for tid) { ts = !clock (); tid; ev }
  end

let record_at ~tid ev =
  if !tracing then push (ring_for tid) { ts = !clock (); tid; ev }

let note_retire block =
  if !histing then Hashtbl.replace retire_ts block (!clock ())

let note_reclaim block =
  if !histing then
    match Hashtbl.find_opt retire_ts block with
    | None -> ()                 (* unpublished free: never retired *)
    | Some t0 ->
      Hashtbl.remove retire_ts block;
      (match !retire_age with
       | Some h -> Metrics.observe h (!clock () - t0)
       | None -> ())

let alloc ~block ~reused =
  if !live then record (Alloc { block; reused })

let retire ~block =
  if !live then begin
    record (Retire { block });
    note_retire block
  end

let reclaim ~block ~unpublished =
  if !live then begin
    record (Reclaim { block; unpublished });
    note_reclaim block
  end

let reserve ~slot = if !live then record (Reserve { slot })
let unreserve ~slot = if !live then record (Unreserve { slot })
let epoch_advance ~epoch = if !live then record (Epoch_advance { epoch })
let sweep_begin ~phase = if !live then record (Sweep_begin { phase })

let sweep_end ~phase ~freed =
  if !live then record (Sweep_end { phase; freed })

let crash ~tid = if !live then record_at ~tid Crash
let ejection ~victim = if !live then record (Ejection { victim })
let neutralization ~victim = if !live then record (Neutralization { victim })
let pressure () = if !live then record Pressure
let op_begin () = if !live then record Op_begin
let op_end () = if !live then record Op_end
let handoff ~block = if !live then record (Handoff { block })
let drain ~drained = if !live then record (Drain { drained })

let note_retire_cost cycles =
  if !histing then
    match !retire_cost with
    | Some h -> Metrics.observe h cycles
    | None -> ()

let charge kind cycles =
  if !live && !histing then begin
    let i = kind_index kind in
    charge_count.(i) <- charge_count.(i) + 1;
    charge_cycles.(i) <- charge_cycles.(i) + cycles
  end
