(* The execution layer under every strategy: run one scenario under
   one schedule and report what happened.

   The scheduler is configured so that every charged shared-memory
   primitive is exactly one dispatch decision: a single simulated
   core, one-cost quanta, suspension after every charge, no random
   stalls.  The cost model is pinned to [Cost.uniform] for the
   duration of a run so that decision-point alignment — and therefore
   checked-in traces — cannot drift when the calibrated cost model is
   re-tuned (a zero-cost primitive would silently stop being a
   decision point).

   Faults are counted, not raised, so a failing schedule runs to
   completion and the recorded decision list covers the whole
   execution; the shrinker then cuts the irrelevant tail. *)

open Ibr_runtime
open Ibr_core

let check_config =
  { (Sched.test_config ~cores:1 ~seed:0 ()) with
    quantum = 1; ctx_switch = 0; perform_threshold = 1 }

type result = {
  failure : string option; (* None = schedule passed *)
  decisions : int list;    (* chosen tid per dispatch, in order *)
  preemptions : int;       (* switches away from a still-runnable thread *)
  dispatches : int;
}

let fault_kinds =
  Fault.[ Use_after_free; Double_free; Double_retire; Retire_unpublished ]

let describe_faults ~before =
  fault_kinds
  |> List.filter_map (fun k ->
       let d = Fault.count k - List.assq k before in
       if d > 0 then Some (Printf.sprintf "%s x%d" (Fault.kind_to_string k) d)
       else None)
  |> String.concat ", "

(* Run [scenario] once, taking every dispatch decision from [decide].
   [decide] sees the same (runnable, current) view the scheduler
   does.  An exception from [decide] abandons the run and is re-raised:
   it is the caller's signal, not a failure of the scenario. *)
let run (scenario : Scenario.t) ~(decide : Sched.decider) : result =
  let inst = scenario.make () in
  if Array.length inst.bodies <> scenario.threads then
    invalid_arg
      (Printf.sprintf "Engine.run: scenario %s has %d bodies for %d threads"
         scenario.name (Array.length inst.bodies) scenario.threads);
  let sched = Sched.create check_config in
  Array.iter (fun body -> ignore (Sched.spawn sched body)) inst.bodies;
  let decisions = ref [] and preempts = ref 0 and n = ref 0 in
  let abandoned = ref None in
  Sched.set_decider sched (fun ~runnable ~current ->
    let tid =
      try decide ~runnable ~current
      with e ->
        abandoned := Some e;
        raise e
    in
    if current >= 0 && tid <> current && Array.exists (Int.equal current) runnable
    then incr preempts;
    decisions := tid :: !decisions;
    incr n;
    tid);
  let saved = !Prim.costs in
  let before = List.map (fun k -> (k, Fault.count k)) fault_kinds in
  let failure =
    Fun.protect ~finally:(fun () -> Prim.set_costs saved) (fun () ->
      Prim.set_costs Cost.uniform;
      match Fault.with_counting (fun () -> Sched.run sched) with
      | (), 0 -> inst.finish ()
      | (), _ -> Some ("memory fault: " ^ describe_faults ~before)
      | exception e -> Some ("exception: " ^ Printexc.to_string e))
  in
  Option.iter raise !abandoned;
  { failure; decisions = List.rev !decisions; preemptions = !preempts;
    dispatches = !n }

(* The non-preemptive default: keep the current thread on core; when
   it dies (or before the first dispatch), the lowest-tid runnable
   one.  Both exploration (past its forced prefix) and replay (past
   its segments) extend schedules this way, which is what lets a
   shrunk trace stay short. *)
let default_choice ~runnable ~current =
  if current >= 0 && Array.exists (Int.equal current) runnable then current
  else runnable.(0)

(* Replay: consume the trace's segments, skipping segments whose
   thread is no longer runnable, then fall back to the default. *)
let decider_of_trace (tr : Trace.t) : Sched.decider =
  let segs = ref tr.segments in
  fun ~runnable ~current ->
    let mem tid = Array.exists (Int.equal tid) runnable in
    let rec pick () =
      match !segs with
      | [] -> default_choice ~runnable ~current
      | ({ Trace.tid; steps } as s) :: rest ->
        if steps <= 0 || not (mem tid) then begin
          segs := rest;
          pick ()
        end
        else begin
          segs := { s with steps = steps - 1 } :: rest;
          tid
        end
    in
    pick ()

let replay scenario (trace : Trace.t) =
  if trace.threads <> scenario.Scenario.threads then
    invalid_arg
      (Printf.sprintf
         "Engine.replay: trace %s has %d threads, scenario %s has %d"
         trace.scenario trace.threads scenario.Scenario.name
         scenario.Scenario.threads);
  run scenario ~decide:(decider_of_trace trace)

(* Compress a decision list into trace segments (consecutive equal
   tids collapse). *)
let trace_of_decisions (scenario : Scenario.t) decisions =
  let segments =
    List.fold_left
      (fun acc tid ->
         match acc with
         | (t, n) :: rest when t = tid -> (t, n + 1) :: rest
         | _ -> (tid, 1) :: acc)
      [] decisions
    |> List.rev
  in
  Trace.v ~scenario:scenario.Scenario.name ~threads:scenario.Scenario.threads
    segments
