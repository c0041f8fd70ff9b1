(* Cost-charged shared-memory primitives.

   All tracker and data-structure code performs its shared accesses
   through these wrappers so that (a) the simulator charges each
   primitive its modelled latency and gets a preemption point, and
   (b) the per-scheme instruction mix — the thing the paper's
   throughput differences come from — is faithfully accounted: an HP
   read pays a fence, a TagIBR write pays an extra CAS, an EBR read
   pays nothing extra.

   Each wrapper also attributes its charge to the matching
   [Ibr_obs.Probe] cost bucket.  On the real-domains backend with no
   handler installed and attribution off, a wrapper is its raw
   [Atomic] op behind one load and branch.

   The active cost model is a global; experiments set it once before a
   run (the simulator is single-domain, and the real-domains backend
   ignores costs). *)

open Ibr_runtime

let costs = ref Cost.default

let set_costs c = costs := c

(* [Hooks.active], read here rather than called: every primitive
   below tests it first and leaves the charge, the step and the
   neutralization poll (all no-ops while it is false) out of line. *)
let active () = Atomic.get (Hooks.demand :> int Atomic.t) <> 0

let charge kind c =
  Ibr_obs.Probe.charge kind c;
  Hooks.step c

let read_charged a =
  (* Guard-path neutralization poll (domains backend; no-op on the
     sim, which delivers at scheduling points): a pending restart
     signal must land before the value read here can be trusted for a
     dereference. *)
  Hooks.poll_neutralize ();
  charge Ibr_obs.Probe.K_read !costs.Cost.read;
  Atomic.get a

let read a = if active () then read_charged a else Atomic.get a

(* Read of a read-mostly global (epoch counter, born_before tag):
   cheaper than a general shared load — see Cost.hot_read. *)
let hot_read a =
  if active () then
    charge Ibr_obs.Probe.K_hot_read !costs.Cost.hot_read;
  Atomic.get a

let write a v =
  if active () then charge Ibr_obs.Probe.K_write !costs.Cost.write;
  Atomic.set a v

(* Charge for a CAS the caller already performed raw.  For callers
   that must do bookkeeping between the CAS landing and the preemption
   point: the step below can unwind the fiber at the horizon, and
   [cas] steps after its atomic op, so state that must stay atomic
   with the CAS has to be written before this charge. *)
let charge_cas ~ok =
  if active () then
    if ok then charge Ibr_obs.Probe.K_cas !costs.Cost.cas
    else charge Ibr_obs.Probe.K_cas_fail !costs.Cost.cas_fail

let cas a expected desired =
  let ok = Atomic.compare_and_set a expected desired in
  charge_cas ~ok;
  ok

let faa a n =
  if active () then charge Ibr_obs.Probe.K_faa !costs.Cost.faa;
  Atomic.fetch_and_add a n

(* Write-read (store-load) fence.  On the real-domains backend OCaml's
   seq-cst atomics already order everything, so only the cost matters. *)
let fence () =
  if active () then charge Ibr_obs.Probe.K_fence !costs.Cost.fence

(* Thread-local bookkeeping of [n] conceptual steps. *)
let local n =
  if active () then
    charge Ibr_obs.Probe.K_local (n * !costs.Cost.local)

(* Payload dereference: same latency class as a read, and — crucially
   for fault detection — a preemption point between reading a pointer
   and touching what it points to. *)
let charge_deref () =
  if active () then begin
    Hooks.poll_neutralize ();
    charge Ibr_obs.Probe.K_read !costs.Cost.read
  end

let charge_alloc ~reused =
  if active () then
    if reused then charge Ibr_obs.Probe.K_alloc_reuse !costs.Cost.alloc_reuse
    else charge Ibr_obs.Probe.K_alloc_fresh !costs.Cost.alloc_fresh

let charge_free () =
  if active () then charge Ibr_obs.Probe.K_free !costs.Cost.free

let charge_scan () =
  if active () then
    charge Ibr_obs.Probe.K_scan_reservation !costs.Cost.scan_reservation
