(* Memory blocks with an explicit lifecycle.

   A block plays the role of a heap node in a manually managed
   language.  The header carries the interval metadata the paper's
   schemes rely on — the birth epoch (set at allocation, §3) and the
   retire epoch (set at retirement) — plus a state machine that stands
   in for actual deallocation:

       Live --retire--> Retired --free--> Reclaimed --(reuse)--> Live

   Accessing the payload of a [Reclaimed] block is the moral
   equivalent of dereferencing a dangling pointer and is reported via
   [Fault]; in counting mode the stale payload is returned, like the
   garbage a real dangling read would observe.  Header fields (state, epochs) remain readable after
   reclamation, which models a type-preserving allocator and is what
   the TagIBR-TPA variant depends on (§3.2.1). *)

type state = Live | Retired | Reclaimed

type 'a t = {
  id : int;                       (* unique per allocator, stable across reuse *)
  mutable incarnation : int;      (* bumped on reuse; detects stale refs *)
  mutable birth_epoch : int;
  mutable retire_epoch : int;
  state : state Atomic.t;
  mutable payload : 'a;           (* kept after reclaim: stale reads see it *)
}

let make ~id payload = {
  id;
  incarnation = 0;
  birth_epoch = 0;
  retire_epoch = max_int;
  state = Atomic.make Live;
  payload;
}

let id b = b.id
let state b = Atomic.get b.state
let birth_epoch b = b.birth_epoch
let retire_epoch b = b.retire_epoch
let incarnation b = b.incarnation

let set_birth_epoch b e = b.birth_epoch <- e
let set_retire_epoch b e = b.retire_epoch <- e

(* Payload access = pointer dereference.  The single point where
   use-after-free is detected. *)
let get b =
  (* [Prim.active], tested here to spare the call on the native path. *)
  if Atomic.get (Ibr_runtime.Hooks.demand :> int Atomic.t) <> 0 then
    Prim.charge_deref ();
  match Atomic.get b.state with
  | Reclaimed ->
    Fault.report Fault.Use_after_free
      (Printf.sprintf "block %d (inc %d) accessed after reclamation"
         b.id b.incarnation);
    (* Count mode continues with the stale payload — exactly the
       garbage a real dangling read would observe.  (If the block was
       reused, it is the new occupant's payload.) *)
    b.payload
  | Live | Retired -> b.payload

(* Like [get] but total: [None] instead of a fault.  Used by checkers
   and diagnostics, never by data-structure code. *)
let peek b = if Atomic.get b.state = Reclaimed then None else Some b.payload

let is_live b = Atomic.get b.state = Live
let is_retired b = Atomic.get b.state = Retired
let is_reclaimed b = Atomic.get b.state = Reclaimed

(* Lifecycle transitions; used by the allocator and by [retire]. *)
let transition_retire b =
  (* Live -> Retired.  CAS so that racing double-retires are caught. *)
  if not (Atomic.compare_and_set b.state Live Retired) then
    Fault.report
      (if Atomic.get b.state = Retired then Fault.Double_retire
       else Fault.Retire_unpublished)
      (Printf.sprintf "block %d retired in state %s" b.id
         (match Atomic.get b.state with
          | Live -> "live" | Retired -> "retired" | Reclaimed -> "reclaimed"))

let transition_reclaim b =
  if not (Atomic.compare_and_set b.state Retired Reclaimed) then
    Fault.report Fault.Double_free
      (Printf.sprintf "block %d freed in state %s" b.id
         (match Atomic.get b.state with
          | Live -> "live" | Retired -> "retired" | Reclaimed -> "reclaimed"))

(* Reclaim a block that was never published (speculative allocation
   that lost its install CAS).  Live -> Reclaimed directly. *)
let transition_reclaim_unpublished b =
  if not (Atomic.compare_and_set b.state Live Reclaimed) then
    Fault.report Fault.Double_free
      (Printf.sprintf "block %d dealloc'd in state %s" b.id
         (match Atomic.get b.state with
          | Live -> "live" | Retired -> "retired" | Reclaimed -> "reclaimed"))

(* Reuse: Reclaimed -> Live with a fresh payload and cleared header. *)
let reincarnate b payload =
  assert (Atomic.get b.state = Reclaimed);
  b.incarnation <- b.incarnation + 1;
  b.birth_epoch <- 0;
  b.retire_epoch <- max_int;
  b.payload <- payload;
  Atomic.set b.state Live

let pp ppf b =
  Fmt.pf ppf "#%d@inc%d[%s b=%d r=%s]" b.id b.incarnation
    (match Atomic.get b.state with
     | Live -> "L" | Retired -> "R" | Reclaimed -> "X")
    b.birth_epoch
    (if b.retire_epoch = max_int then "∞" else string_of_int b.retire_epoch)
