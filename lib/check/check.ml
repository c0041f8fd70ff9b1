(* Bounded systematic exploration of schedules (CHESS-style).

   The exhaustive strategy is a stateless-model-checking DFS over
   dispatch decisions, bounded by the number of *preemptions* — places
   where the schedule switches away from a thread that could have kept
   running.  Switches at a thread's death are free, so bound 0 already
   covers every non-preemptive interleaving of completion orders, and
   small bounds cover the schedules that real races live in (the CHESS
   observation: most concurrency bugs need very few preemptions).

   The search re-executes the scenario once per schedule: a schedule
   is a *forced prefix* of decisions followed by the non-preemptive
   default (continue the current thread; on its death the lowest-tid
   runnable one).  After each run, the decisions the default made
   become new stack frames whose admissible alternatives (remaining
   preemption budget permitting) are pushed for later exploration;
   backtracking takes the deepest frame with an untried alternative,
   truncates the stack there, and reruns.  Scenarios are deterministic
   under a fixed schedule, so re-execution is exact replay — this is
   checked, not assumed.

   Iterative deepening over the bound (0, 1, ..) means the first
   witness found uses the fewest preemptions any witness needs; the
   shrinker then minimizes the trace itself. *)

type verdict =
  | Certified of { schedules : int; bound : int }
    (* Every schedule with at most [bound] preemptions passed. *)
  | Witness of {
      trace : Trace.t;        (* full failing schedule, unshrunk *)
      failure : string;
      schedules : int;        (* schedules executed before it was found *)
      preemptions : int;      (* preemptions the witness run used *)
    }
  | Exhausted of { schedules : int }
    (* Budget ran out before the bound was fully explored. *)
  | Diverged of { schedules : int }
    (* The last schedule ran past [max_decisions]. *)

exception Budget
exception Nondeterministic of string
exception Too_long

(* Decisions one schedule may take.  The longest schedule of
   [--check all] takes 111 (thread_churn/HE).  A body that spins
   behind a preempted lock holder never finishes under the default
   choice, which keeps the current thread running, so without a cap
   its schedule would grow until memory ran out. *)
let max_decisions = 10_000

(* One decision point of the last executed run. *)
type frame = {
  mutable chosen : int;           (* tid taken at this point *)
  mutable pre_after : int;        (* preemptions up to and including it *)
  mutable untried : (int * int) list;
    (* (alternative tid, preemptions if taken) not yet explored *)
}

let costs_preemption ~runnable ~current tid =
  current >= 0 && tid <> current && Array.exists (Int.equal current) runnable

(* Execute one schedule: forced prefix, then default.  Returns the
   engine result plus, for each decision at depth >= [skip], the
   (runnable, current, chosen) triple needed to build its frame. *)
let run_schedule scenario ~forced ~skip ~expected =
  let forced = Array.of_list forced in
  let depth = ref 0 in
  let observed = ref [] in
  let decide ~runnable ~current =
    let i = !depth in
    if i >= max_decisions then raise Too_long;
    incr depth;
    let tid =
      if i < Array.length forced then forced.(i)
      else Engine.default_choice ~runnable ~current
    in
    if i < skip then begin
      (* Replayed prefix: must match the frame that forced it. *)
      match expected with
      | Some frames when i < Array.length frames
                         && frames.(i).chosen <> tid ->
        raise (Nondeterministic
                 (Printf.sprintf
                    "%s: decision %d chose t%d on replay, t%d before \
                     (uncharged shared access in a body?)"
                    scenario.Scenario.name i tid frames.(i).chosen))
      | _ -> ()
    end
    else observed := (Array.copy runnable, current, tid) :: !observed;
    tid
  in
  let result = Engine.run scenario ~decide in
  (result, List.rev !observed)

(* Admissible alternatives to [chosen] at a decision point, given the
   preemption count [pre] before it. *)
let alternatives ~bound ~runnable ~current ~chosen ~pre =
  Array.to_list runnable
  |> List.filter_map (fun tid ->
       if tid = chosen then None
       else
         let pre' =
           pre + (if costs_preemption ~runnable ~current tid then 1 else 0)
         in
         if pre' <= bound then Some (tid, pre') else None)

(* Exhaustive DFS at one fixed preemption bound.  [schedules] is the
   shared budget counter (iterative deepening shares one budget). *)
let explore_bound scenario ~bound ~budget ~schedules =
  (* Stack of frames for the last executed run, deepest first. *)
  let stack : frame list ref = ref [] in
  let exception Found of Engine.result in
  let execute forced ~skip ~pre0 =
    if !schedules >= budget then raise Budget;
    incr schedules;
    let expected =
      (* Frames of the forced prefix, shallow first, for replay checks. *)
      Some (Array.of_list (List.rev !stack))
    in
    let result, observed = run_schedule scenario ~forced ~skip ~expected in
    (* Build frames for the default-extended suffix.  Default choices
       never preempt, so the preemption count stays [pre0] throughout. *)
    List.iter
      (fun (runnable, current, chosen) ->
         let untried = alternatives ~bound ~runnable ~current ~chosen ~pre:pre0 in
         stack := { chosen; pre_after = pre0; untried } :: !stack)
      observed;
    if result.Engine.failure <> None then raise (Found result)
  in
  let rec backtrack () =
    match !stack with
    | [] -> `Exhausted
    | f :: below -> (
      match f.untried with
      | [] ->
        stack := below;
        backtrack ()
      | (tid, pre') :: rest ->
        f.untried <- rest;
        f.chosen <- tid;
        f.pre_after <- pre';
        let forced = List.rev_map (fun g -> g.chosen) !stack in
        execute forced ~skip:(List.length forced) ~pre0:pre';
        backtrack ())
  in
  try
    execute [] ~skip:0 ~pre0:0;
    backtrack ()
  with Found result ->
    let failure = Option.get result.Engine.failure in
    `Witness
      (Engine.trace_of_decisions scenario result.Engine.decisions,
       failure, result.Engine.preemptions)

let default_bound = 3
let default_budget = 50_000

(* Iterative deepening: bounds 0, 1, .., [bound], one shared schedule
   budget.  The first witness found therefore needs as few preemptions
   as any witness does. *)
let explore ?(bound = default_bound) ?(budget = default_budget) scenario =
  let schedules = ref 0 in
  let rec deepen b =
    if b > bound then Certified { schedules = !schedules; bound }
    else
      match explore_bound scenario ~bound:b ~budget ~schedules with
      | `Witness (trace, failure, preemptions) ->
        Witness { trace; failure; schedules = !schedules; preemptions }
      | `Exhausted -> deepen (b + 1)
  in
  try deepen 0 with
  | Budget -> Exhausted { schedules = !schedules }
  | Too_long -> Diverged { schedules = !schedules }

(* Uniform random walk: each dispatch picks uniformly among runnable
   threads.  Cheap, embarrassingly parallel in spirit, and a useful
   cross-check on the DFS — but finding nothing certifies nothing, so
   a fault-free walk reports [Exhausted], never [Certified]. *)
let random_walk ?(runs = 1_000) ?(seed = 0) scenario =
  let rng = Random.State.make [| 0x5eed; seed |] in
  let rec go i =
    if i >= runs then Exhausted { schedules = runs }
    else
      let decide ~runnable ~current:_ =
        runnable.(Random.State.int rng (Array.length runnable))
      in
      let result = Engine.run scenario ~decide in
      match result.Engine.failure with
      | Some failure ->
        Witness
          { trace = Engine.trace_of_decisions scenario result.Engine.decisions;
            failure;
            schedules = i + 1;
            preemptions = result.Engine.preemptions }
      | None -> go (i + 1)
  in
  go 0

(* The full pipeline: explore, and if a witness turns up, shrink it to
   a locally minimal replayable trace. *)
type outcome = {
  verdict : verdict;
  minimal : (Trace.t * Shrink.stats) option;
    (* shrunk witness, present iff [verdict] is [Witness] *)
}

let check ?bound ?budget scenario =
  match explore ?bound ?budget scenario with
  | Witness w as verdict ->
    let minimal = Shrink.minimize scenario w.trace in
    { verdict; minimal = Some minimal }
  | verdict -> { verdict; minimal = None }

let pp_verdict ppf = function
  | Certified { schedules; bound } ->
    Fmt.pf ppf "certified: %d schedules, preemption bound %d, no fault"
      schedules bound
  | Witness { failure; schedules; preemptions; trace } ->
    Fmt.pf ppf "FAULT after %d schedules (%d preemptions, %d switches): %s"
      schedules preemptions (Trace.switches trace) failure
  | Exhausted { schedules } ->
    Fmt.pf ppf "budget exhausted after %d schedules, no verdict" schedules
  | Diverged { schedules } ->
    Fmt.pf ppf "schedule %d ran past %d decisions (livelock?), no verdict"
      schedules max_decisions
