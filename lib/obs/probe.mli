(* Typed event probes.  Every emitter's disabled path is one load and
   one branch; probes never charge simulator cost, so a traced run is
   bit-identical (in virtual time) to an untraced one. *)

type sweep_phase = Prepare | Snapshot | Scan

val phase_name : sweep_phase -> string

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
  | Handoff of { block : int }   (* retire queued for the reclaimer *)
  | Drain of { drained : int }   (* one reclaimer drain batch *)

type record = { ts : int; tid : int; ev : event }

(* Injected by the runtime's [Hooks] at link time: the virtual clock
   ([Hooks.global_now]) and the current thread id. *)
val set_clock : (unit -> int) -> unit
val set_tid : (unit -> int) -> unit

(* Also injected by [Hooks]: called with [true] when cost attribution
   ([enable_hist]) turns on and [false] when it turns off, so the
   primitives know whether anybody counts their charges. *)
val set_attribution_listener : (bool -> unit) -> unit

(* Start recording into per-thread ring buffers ([capacity] records
   each, drop-oldest).  Threads beyond [threads] get rings on demand. *)
val start : ?capacity:int -> threads:int -> unit -> unit

(* Additionally track retire-to-reclaim ages (registers the
   [retire_age] histogram metric) and per-primitive cost attribution.
   Independent of [start]: histograms without a trace file is fine. *)
val enable_hist : unit -> unit

val stop : unit -> unit
val enabled : unit -> bool
val hist_enabled : unit -> bool

(* Records dropped across all rings (0 = the trace is complete). *)
val dropped : unit -> int

(* Recorded events: per thread oldest-first, or merged in timestamp
   order. *)
val per_thread : unit -> (int * record array) list
val events : unit -> record list

(* -- emitters (safe to call unconditionally; no-ops when disabled) -- *)

val alloc : block:int -> reused:bool -> unit
val retire : block:int -> unit
val reclaim : block:int -> unpublished:bool -> unit
val reserve : slot:int -> unit
val unreserve : slot:int -> unit
val epoch_advance : epoch:int -> unit
val sweep_begin : phase:sweep_phase -> unit
val sweep_end : phase:sweep_phase -> freed:int -> unit

(* The scheduler's crash injector runs with no fiber current, so the
   victim's tid is explicit. *)
val crash : tid:int -> unit
val ejection : victim:int -> unit
val neutralization : victim:int -> unit
val pressure : unit -> unit
val op_begin : unit -> unit
val op_end : unit -> unit
val handoff : block:int -> unit
val drain : drained:int -> unit

(* Observe one retire call's on-thread cost (virtual cycles) into the
   lazy [retire_cost] histogram; no-op unless [enable_hist] ran. *)
val note_retire_cost : int -> unit

(* -- cost attribution, bucketed by the [Cost] fields -- *)

type cost_kind =
  | K_read | K_hot_read | K_write | K_cas | K_cas_fail | K_faa | K_fence
  | K_alloc_fresh | K_alloc_reuse | K_free | K_scan_reservation | K_local

val cost_kind_name : cost_kind -> string
val charge : cost_kind -> int -> unit

(* Non-zero buckets: (kind, count, total cycles). *)
val charges : unit -> (cost_kind * int * int) list

(* The retire-age and retire-path-cost histograms, once [enable_hist]
   has registered them. *)
val age_hist : unit -> Metrics.hist option
val cost_hist : unit -> Metrics.hist option
