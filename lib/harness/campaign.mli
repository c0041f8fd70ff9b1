(** The paper's evaluation as data (index in DESIGN.md §3).

    Every run of every campaign, and of [bin/main.exe], is a {!point}
    executed by {!run}, the one place that builds a simulator or
    Domains machine and runs either driver on it.  A
    campaign is a named [unit -> report]: the text it prints, the
    claims it checks against its own rows, and the files it archives.
    {!main} is the front end behind [bench/main.exe]: it runs the named
    campaigns in {!all}'s order and fails when any claim fails. *)

type backend = Sim | Domains

(** What the workers do: the paper's closed loop, or the open-loop
    service ({!Service.serve}) with its own census-aware watchdog
    [(period, grace)], whose remedy neutralizes instead of ejecting
    when [neutralize] holds. *)
type driver =
  | Closed
  | Service of { watchdog : (int * int) option; neutralize : bool }

type point = {
  tracker : string;
  ds : string;
  spec : Workload.spec;
  threads : int;
  cores : int;          (** simulated hardware threads (sim only) *)
  horizon : int;        (** virtual cycles, or microseconds on Domains *)
  seed : int;
  faults : Runner_intf.faults;
  (** A service point takes only [No_faults] or a [Stall_storm]. *)
  backend : backend;
  driver : driver;
  label : string option;
  (** Replaces the row's tracker name (e.g. ["EBR/crash"]); [None]
      keeps the registry's canonical name. *)
  tweak : Ibr_core.Tracker_intf.config -> Ibr_core.Tracker_intf.config;
  (** Applied to the default tracker config of [threads]. *)
}

val point :
  ?spec:Workload.spec -> ?cores:int -> ?seed:int ->
  ?faults:Runner_intf.faults -> ?backend:backend -> ?driver:driver ->
  ?label:string ->
  ?tweak:(Ibr_core.Tracker_intf.config -> Ibr_core.Tracker_intf.config) ->
  threads:int -> horizon:int -> string -> string -> point
(** [point ~threads ~horizon tracker ds]: defaults are the runners'
    (72 cores, seed [0xbeef], no faults, the simulator, the closed
    loop) and [Workload.spec_for ds]. *)

val run : point -> Stats.t option
(** One run; [None] if the tracker cannot run the rideable.  The sim
    machine takes the scheduler knobs {!Runner_sim.sched_config} gives
    the point's faults; on [Domains] each worker (each of the
    {!Service.fleet} for a service) is a domain and the horizon is a
    wall-clock duration in microseconds.
    @raise Invalid_argument on unknown names, or a service point whose
    faults are not [No_faults] or a [Stall_storm].
    @raise Runner_intf.Unsupported if the faults need a capability the
    backend lacks. *)

(** A claim checked mechanically against a campaign's rows. *)
type claim = { claim : string; holds : bool; detail : string }

type report = {
  text : string;
  claims : claim list;
  files : (string * string) list;  (** file name, contents *)
}

type t = { name : string; run : unit -> report }

val table : (string * int * ('a -> string)) list -> 'a list -> string
(** Aligned text table from [(header, width, cell)] columns, one
    space apart; a negative width left-aligns, as in printf. *)

val all : t list
(** Every library campaign, in the order {!main} runs them.  The order
    is fixed because some runs widen the {!Stats} CSV header of every
    later run in the process: service runs register [svc_*] columns
    and the watchdog's neutralization gauges, a neutralizing watchdog
    registers those gauges, and [bench6] turns on histograms. *)

val main : t list -> string list -> int
(** [main campaigns args] with [args = [--out DIR] [NAME ...]] runs
    the named campaigns (every one if none is named) in list order,
    prints their text and a [PASS]/[FAIL] line per claim, writes their
    files under [DIR], and returns the exit status: 1 if any claim
    failed, 2 on a bad argument, 0 otherwise. *)

(** {2 Parts the tests drive} *)

val lineup : string -> Ibr_core.Registry.entry list
(** The paper's schemes that can run a rideable. *)

val fig7_table : unit -> string

val robust_points :
  ?trackers:string list -> ?profiles:string list -> ?horizons:int list ->
  unit -> point list
(** The robustness campaign (DESIGN.md §7): each tracker under each
    fault profile across a ladder of run lengths, on a small hashmap;
    rows are labelled ["TRACKER/profile"]. *)

val robust_rows : point list -> Stats.t list
(** Runs each point under {!Ibr_core.Fault.with_counting}, so an
    exhausted allocator is counted, not fatal. *)

val robustness_checks : Stats.t list -> claim list
(** Under a crashed thread EBR's peak unreclaimed grows with run length
    while HP/HE/2GEIBR saturate; under crash+capped the robust schemes
    never exhaust the allocator while EBR does; the watchdog restores
    EBR's bound; under stall+neutralize EBR's and DEBRA's peaks stay
    below the storm's with zero ejections (DESIGN.md §12). *)
