(* Memory-fault detection policy.

   In C, a use-after-free or double-free is undefined behaviour.  In
   this reproduction both are *defined, detectable events*: the
   allocator and block accessors funnel every violation through this
   module.  Tests run in [Raise] mode (a violation fails the test);
   experiment harnesses demonstrating broken schemes run in [Count]
   mode so a run survives long enough to accumulate statistics. *)

type kind =
  | Use_after_free   (* payload accessed after reclamation *)
  | Double_free      (* block reclaimed twice *)
  | Double_retire    (* block retired twice *)
  | Retire_unpublished (* block retired while never published / not live *)
  | Alloc_exhausted  (* capped allocator still full after backpressure *)

exception Memory_fault of kind * string

exception Neutralized = Ibr_runtime.Hooks.Neutralized
(* Re-export of the runtime's restart signal under the fault
   namespace, so tracker / DS code can catch or raise it without
   naming the runtime layer.  Not a memory fault: delivery is part of
   normal (healed) operation under the DEBRA+ protocol. *)

type mode = Raise | Count

let mode : mode Atomic.t = Atomic.make Raise

let use_after_free = Atomic.make 0
let double_free = Atomic.make 0
let double_retire = Atomic.make 0
let retire_unpublished = Atomic.make 0
let alloc_exhausted = Atomic.make 0

let counter = function
  | Use_after_free -> use_after_free
  | Double_free -> double_free
  | Double_retire -> double_retire
  | Retire_unpublished -> retire_unpublished
  | Alloc_exhausted -> alloc_exhausted

let kind_to_string = function
  | Use_after_free -> "use-after-free"
  | Double_free -> "double-free"
  | Double_retire -> "double-retire"
  | Retire_unpublished -> "retire-unpublished"
  | Alloc_exhausted -> "alloc-exhausted"

let report kind detail =
  match Atomic.get mode with
  | Raise -> raise (Memory_fault (kind, detail))
  | Count -> Atomic.incr (counter kind)

let count kind = Atomic.get (counter kind)

let all_kinds =
  [ Use_after_free; Double_free; Double_retire; Retire_unpublished;
    Alloc_exhausted ]

let total () =
  List.fold_left (fun n k -> n + count k) 0 all_kinds

(* Read-backed counter: runs report the delta across their measured
   phase (the registry diffs against a start-of-run baseline). *)
let () = Ibr_obs.Metrics.register_counter ~name:"faults" ~order:300 total

let reset () = List.iter (fun k -> Atomic.set (counter k) 0) all_kinds

let set_mode m = Atomic.set mode m

(* Run [f] in [Count] mode; the tally is the change in [total] across
   the call, so it survives [f] raising (the old success-path-only
   subtraction lost the count of a crashing run). *)
let with_counting_result f =
  let old = Atomic.get mode in
  Atomic.set mode Count;
  let before = total () in
  let result =
    Fun.protect ~finally:(fun () -> Atomic.set mode old) (fun () ->
      match f () with
      | v -> Ok v
      | exception e -> Error e)
  in
  (result, total () - before)

let with_counting f =
  match with_counting_result f with
  | Ok result, n -> (result, n)
  | Error e, _ -> raise e
