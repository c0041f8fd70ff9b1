(* Shared chassis for the interval-based schemes of §3.2–3.3.

   TagIBR (CAS and FAA flavours), TagIBR-WCAS, TagIBR-TPA and 2GEIBR
   all keep a per-thread [lower, upper] epoch interval, advance the
   epoch on allocation, tag blocks with birth/retire epochs, and
   reclaim by interval intersection.  They differ only in the shared
   pointer representation and in how a read extends the upper
   endpoint — which is what the [POINTER_OPS] parameter captures. *)

module type POINTER_OPS = sig
  val name : string
  val props : Tracker_intf.properties

  type 'a ptr

  val make_ptr : ?tag:int -> 'a Block.t option -> 'a ptr

  val read :
    epoch:Epoch.t -> upper:int Atomic.t -> 'a ptr -> 'a View.t
  (* Must return a view only once the thread's upper endpoint
     provably covers the target's birth epoch *and* that reservation
     was visible when the returned view was (re-)read. *)

  val write : 'a ptr -> ?tag:int -> 'a Block.t option -> unit
  val cas :
    'a ptr -> expected:'a View.t -> ?tag:int -> 'a Block.t option -> bool
end

module Policy (P : POINTER_OPS) = struct
  open Tracker_kernel
  module Res = Tracker_common.Interval_res

  let name = P.name
  let props = P.props

  include Default_hooks

  type 'a res = Res.t
  type 'a state = int Atomic.t   (* this thread's upper endpoint *)
  type 'a ptr = 'a P.ptr

  (* Fig. 5 lines 30–36: epoch tick on allocation, tag birth epoch. *)
  let epoch = Allocation Charged
  let create_res ~threads _ = Res.create threads
  let create_state t ~tid = Res.upper_cell t.res ~tid

  (* Fig. 5 lines 22–29: interval-intersection sweep.  The table is
     digested once into a sorted snapshot; each block then pays
     O(log T) instead of a rescan of every thread's endpoints. *)
  let source t () =
    Reclaimer.intervals (Res.sweep_snapshot t.res)

  (* Clearing the [lower, upper] interval unpins every block whose
     lifetime it intersected. *)
  let clear t ~tid = Res.clear t.res ~tid

  let start_op h =
    let e = Epoch.read h.t.epoch in
    Res.start h.t.res ~tid:h.tid e;
    Ibr_obs.Probe.reserve ~slot:0

  let end_op h =
    Res.clear h.t.res ~tid:h.tid;
    Ibr_obs.Probe.unreserve ~slot:0

  (* Open a fresh interval at the current epoch; the retried
     traversal re-extends the upper endpoint read by read. *)
  let resume = start_op

  let make_ptr _ ?tag target = P.make_ptr ?tag target

  let read h ~slot:_ p = P.read ~epoch:h.t.epoch ~upper:h.st p

  let read_root h p = read h ~slot:0 p
  let write _ p ?tag target = P.write p ?tag target
  let cas _ p ~expected ?tag target = P.cas p ~expected ?tag target
  let unreserve _ ~slot:_ = ()
  let reassign _ ~src:_ ~dst:_ = ()
end

module Make (P : POINTER_OPS) = Tracker_kernel.Make (Policy (P))
