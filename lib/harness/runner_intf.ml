(* The capability surface shared by both execution backends.

   [Run_engine] owns the scaffolding every runner used to duplicate —
   create/prefill, capacity sizing, handoff pre-drain, metrics
   baseline, the background-reclaimer service, watchdog spawn,
   shutdown quiescence, stats assembly — parameterized over an [exec]:
   a first-class record of what a backend can do (spawn workers and
   service threads, launch, tell time, wait, report makespan) plus a
   [capabilities] declaration of what it supports.

   A fault profile or harness feature that needs a capability the
   backend does not declare fails fast with {!Unsupported} — never a
   silent no-op that measures nothing (the old domains runner kept
   crash gauges at zero and dropped every profile on the floor).

   Time units: one virtual cycle on the simulator, one microsecond of
   monotonic wall clock on domains.  The 1 cycle ~ 1 us convention
   makes every period-like knob (watchdog period/grace, stall length,
   service horizon and inter-arrival gap, SLO targets) meaningful on
   both backends without rescaling: the sim's crash+watchdog period of
   15_000 cycles is a 15 ms wall period on domains. *)

type capabilities = {
  deterministic : bool;   (* same seed => bit-identical run *)
  crash_faults : bool;    (* scheduler-injected thread death *)
  stall_faults : bool;    (* injected long stalls *)
  virtual_time : bool;    (* discrete-event clock (replay, traces) *)
  watchdog : bool;        (* ejection watchdog can ride along *)
  neutralize : bool;      (* restart signals deliverable to workers *)
  alloc_capacity : bool;  (* capped-allocator backpressure *)
  service : bool;         (* open-loop service runs with churn *)
  probes : bool;          (* Ibr_obs.Probe tracing and histograms *)
}

let capability_names =
  [ "deterministic"; "crash_faults"; "stall_faults"; "virtual_time";
    "watchdog"; "neutralize"; "alloc_capacity"; "service"; "probes" ]

let has caps = function
  | "deterministic" -> caps.deterministic
  | "crash_faults" -> caps.crash_faults
  | "stall_faults" -> caps.stall_faults
  | "virtual_time" -> caps.virtual_time
  | "watchdog" -> caps.watchdog
  | "neutralize" -> caps.neutralize
  | "alloc_capacity" -> caps.alloc_capacity
  | "service" -> caps.service
  | "probes" -> caps.probes
  | c -> invalid_arg ("Runner_intf.has: unknown capability " ^ c)

exception Unsupported of { backend : string; capability : string }

let () =
  Printexc.register_printer (function
    | Unsupported { backend; capability } ->
      Some
        (Printf.sprintf
           "Unsupported: the %s backend does not provide %S" backend
           capability)
    | _ -> None)

let unsupported ~backend ~capability =
  raise (Unsupported { backend; capability })

(* -- fault profiles: both backends run the subset their capabilities
   cover -- *)

type faults =
  | No_faults
  | Stall_storm of { stall_prob : float; stall_len : int }
      (** Amplified involuntary stalls (oversubscription regime). *)
  | Crash of { crash_prob : float; max_crashes : int }
      (** Probabilistic crash faults; a crashed thread's reservations
          stay pinned forever ({!Ibr_runtime.Sched.crash}). *)
  | Crash_capped of {
      crash_prob : float;
      max_crashes : int;
      slack_per_thread : int;
    }
      (** Crash faults plus a heap capacity of post-prefill live
          blocks + [threads * slack_per_thread]; exhausted operations
          abort gracefully and are counted, not completed. *)
  | Crash_watchdog of {
      crash_prob : float;
      max_crashes : int;
      period : int;
      grace : int;
    }
      (** Crash faults plus the ejection watchdog with the given check
          period (virtual cycles) and grace (checks with no progress
          before ejection). *)
  | Stall_watchdog of { period : int; grace : int }
      (** Watchdog detection without crash injection: the engine parks
          worker 0 between operations (holding no reservation, so its
          ejection is sound by construction) and the watchdog must
          notice and eject it.  Runs on both backends. *)
  | Stall_neutralize of {
      stall_prob : float;
      stall_len : int;
      period : int;
      grace : int;
    }
      (** Stall-storm injection with a {e neutralizing} watchdog
          (DEBRA+, DESIGN.md §12): a worker frozen for
          [period * grace] receives a restart signal instead of being
          ejected — it drops and re-establishes protection and keeps
          working.  Stall injection stays on, because neutralizing a
          live thread is sound where ejecting one is not.  Runs on
          both backends. *)

(* Named presets for the CLI / campaign.  Crash profiles zero
   [stall_prob]: a crash is the fault under study, and (for the
   watchdog) a long stall is indistinguishable from death, so mixing
   the two would eject live threads (see [Watchdog]). *)
let fault_profiles = [
  ("none", No_faults);
  ("stall-storm", Stall_storm { stall_prob = 0.05; stall_len = 480_000 });
  (* crash_prob is per dispatched quantum: 0.25 lands the (single)
     crash within the first couple of scheduling rounds, so the
     pre-crash block population — the robust schemes' pinned-set bound
     — stays close to the prefill working set. *)
  ("crash", Crash { crash_prob = 0.25; max_crashes = 1 });
  ("crash+capped",
   (* Slack budget: per-thread limbo lists (a few empty_freq each) plus
      the set a robust scheme's crashed interval legitimately pins —
      up to the pre-crash block population (campaigns keep the
      structure small so this saturates early). *)
   Crash_capped { crash_prob = 0.25; max_crashes = 1; slack_per_thread = 320 });
  ("crash+watchdog",
   (* One check per watchdog quantum: a shorter period would fire
      several checks inside one quantum, during which no other fiber
      advances — every live thread would look stale.  grace = 3 then
      needs three full scheduling rounds of silence, which only a dead
      thread produces (profiles with the watchdog keep stalls off). *)
   Crash_watchdog
     { crash_prob = 0.25; max_crashes = 1; period = 15_000; grace = 3 });
  ("stall+watchdog",
   (* The crash+watchdog-equivalent both backends support: the engine
      parks worker 0 between operations (holding no reservation, so
      ejecting it is sound by construction) and the watchdog must
      notice the frozen progress counter and eject within
      period * grace — 45 ms of wall clock on domains, 45k cycles on
      the sim. *)
   Stall_watchdog { period = 15_000; grace = 3 });
  ("stall+neutralize",
   (* The recovery counterpart of stall-storm: the same stall
      injection stays ON (unlike the ejecting watchdog profiles,
      which must disable it — neutralizing a live thread is sound,
      ejecting one is not).  A stalled worker that outlasts
      period * grace receives a restart signal instead of being
      written off: it drops and re-establishes protection, so the
      non-robust schemes' footprint stays flat without losing a
      single worker permanently. *)
   Stall_neutralize
     { stall_prob = 0.05; stall_len = 480_000;
       period = 15_000; grace = 3 });
]

let faults_of_string s = List.assoc_opt s fault_profiles

let faults_name f =
  match List.find_opt (fun (_, v) -> v = f) fault_profiles with
  | Some (n, _) -> n
  | None -> "custom"

(* Capabilities a fault profile draws on.  [Crash_capped] also sizes
   the allocator; the watchdog profiles spawn the monitor thread. *)
let required_caps = function
  | No_faults -> []
  | Stall_storm _ -> [ "stall_faults" ]
  | Crash _ -> [ "crash_faults" ]
  | Crash_capped _ -> [ "crash_faults"; "alloc_capacity" ]
  | Crash_watchdog _ -> [ "crash_faults"; "watchdog" ]
  | Stall_watchdog _ -> [ "stall_faults"; "watchdog" ]
  | Stall_neutralize _ -> [ "stall_faults"; "watchdog"; "neutralize" ]

(* Capabilities [caps] is missing for [faults] (empty = runnable). *)
let missing caps faults =
  List.filter (fun c -> not (has caps c)) (required_caps faults)

(* -- the backend surface the engine runs against -- *)

type exec = {
  backend : string;            (* "sim" | "domains" (provenance tag) *)
  caps : capabilities;
  spawn : (tid:int -> unit) -> unit;
  (* Register a worker; tids are assigned in spawn order from 0.
     Bodies run at [launch]. *)
  spawn_aux : (unit -> unit) -> unit;
  (* Register a service thread (reclaimer, watchdog): a fiber exempt
     from injected stalls on the sim, a domain joined after the
     workers on domains. *)
  launch : unit -> unit;
  (* Run everything registered to completion/horizon and join. *)
  now : unit -> int;
  (* Caller time: the fiber's virtual clock on the sim, microseconds
     of monotonic wall clock since launch on domains. *)
  wait : int -> unit;
  (* Idle for n units ([Hooks.step] / sleep). *)
  worker_running : unit -> bool;
  (* Workers poll this in open-ended loops (park/backoff): true until
     the wall deadline on domains, always true on the sim (fibers are
     unwound at the horizon instead). *)
  aux_running : unit -> bool;
  (* Same, for service threads: false once every worker has joined on
     domains. *)
  worker_tick : tid:int -> bool;
  (* Per-operation backend hook for closed-loop workers: injects
     wall-clock stall faults and answers "keep going?".  Always true
     on the sim. *)
  neutralize : eject:(unit -> unit) -> tid:int -> unit;
  (* Deliver a restart signal to worker [tid] (watchdog Neutralize
     remedy).  [eject] expires the victim's reservations at the
     tracker; the backend decides when it is sound to call it: the
     sim calls it immediately (delivery-at-resumption guarantees the
     victim cannot dereference before it sees the signal), domains
     only raise a per-slot flag and let the victim expire itself
     inside [recover] (an external eject could race a dereference the
     victim is already committed to).  Backends without the
     "neutralize" capability raise [Unsupported]. *)
  makespan : unit -> int;
  (* After [launch]: run length in backend time units. *)
  publish_crashes : unit -> unit;
  (* Publish the crash-fault gauge (no-op where crashes cannot be
     injected — honest, because crash profiles raise Unsupported
     there). *)
}

let require exec faults =
  match missing exec.caps faults with
  | [] -> ()
  | capability :: _ -> unsupported ~backend:exec.backend ~capability

let require_capability exec capability =
  if not (has exec.caps capability) then
    unsupported ~backend:exec.backend ~capability

(* Probes stamp each event with [Hooks.current_tid] and [global_now],
   which only the simulator's handler answers, and record into rings
   and tables nothing synchronises.  A run with tracing or histograms
   on needs a backend that declares [probes]: elsewhere the trace and
   the tallies would be plausible-looking and wrong. *)
let require_probes exec =
  if Ibr_obs.Probe.enabled () || Ibr_obs.Probe.hist_enabled () then
    require_capability exec "probes"

(* Markdown-ish capability table for docs and --menu output. *)
let caps_row caps =
  String.concat " "
    (List.map (fun c -> if has caps c then "+" ^ c else "-" ^ c)
       capability_names)
