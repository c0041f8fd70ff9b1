(* Quiescent-state-based reclamation (Hart et al. [15]; paper §2.2).

   The RCU-style member of the epoch family: instead of posting a
   reservation at operation start, each thread announces *quiescent
   states* — moments when it holds no references (here: operation
   end).  The classic three-epoch construction:

   - a thread copies the global epoch E into its slot at each
     quiescent point;
   - a thread that observes every online slot equal to E advances E;
   - a block retired in epoch e is reclaimable once E >= e + 2: every
     thread has passed a quiescent state since the retirement.

   Like EBR it has zero per-read overhead; like EBR it is not robust —
   one thread that stops announcing quiescent states freezes the
   epoch and pins all future retirements.

   The epoch advance MUST be a conditional e -> e+1 CAS: two racing
   advancers that both increment unconditionally skip a grace period
   and free blocks whose readers have not quiesced (DESIGN.md §5a.3).
   The functor below keeps both advance policies so the buggy variant
   survives as a checked, model-checkable oracle ([Noncas]) alongside
   the sound scheme. *)

module type ADVANCE = sig
  val name : string
  val summary : string

  val advance : Epoch.t -> expected:int -> unit
  (* Advance the epoch, all-quiescent-in-[expected] already checked. *)
end

module Policy (A : ADVANCE) = struct
  open Tracker_kernel

  let name = A.name

  let props = {
    Tracker_intf.robust = false;
    needs_unreserve = false;
    mutable_pointers = true;
    bounded_slots = false;
    pointer_tag_words = 0;
    fence_per_read = false;
    summary = A.summary;
  }

  include Default_hooks
  include Plain_ops

  (* The last epoch each thread has passed a quiescent state in. *)
  type 'a res = int Atomic.t array
  type 'a state = int Atomic.t   (* this thread's quiescence epoch *)

  let epoch = Quiescence

  (* Initially every thread is quiescent in epoch 1. *)
  let create_res ~threads _ =
    Array.init threads (fun _ -> Ibr_runtime.Padded.copy (Atomic.make 1))
  let create_state t ~tid = t.res.(tid)

  (* Advance the global epoch if every thread has quiesced in it. *)
  let try_advance t =
    let e = Epoch.read t.epoch in
    let all_quiescent =
      Array.for_all
        (fun slot ->
           Prim.charge_scan ();
           Atomic.get slot >= e)
        t.res
    in
    if all_quiescent then A.advance t.epoch ~expected:e

  (* retire_epoch > e - 2, i.e. the two-grace-period threshold. *)
  let source t () =
    let e = Epoch.read t.epoch in
    Reclaimer.Shape (Tracker_common.Conflict.Threshold (e - 1))

  (* The advance attempt runs before every cadence and pressure sweep:
     QSBR's epoch only moves through it. *)
  let prepare = try_advance

  (* A parked slot reads [max_int] ("always quiescent"), which must
     not survive reuse: a joiner is quiescent only *up to the attach
     instant*, so it publishes the current epoch before it can touch
     shared memory — otherwise two advances could race past its
     first operation and free a block it reads. *)
  let publish t ~tid = Prim.write t.res.(tid) (Epoch.read t.epoch)
  let on_attach = publish

  let start_op _ = ()

  (* The quiescent state: no references held from here on. *)
  let end_op h =
    let e = Epoch.read h.t.epoch in
    Prim.write h.st e;
    Ibr_obs.Probe.unreserve ~slot:0

  (* The caller of force_empty is between operations, i.e.
     quiescent: announce that, then drive up to two grace periods so
     that blocks whose other readers have all quiesced become
     reclaimable. *)
  let before_force h =
    end_op h;
    try_advance h.t;
    end_op h;
    try_advance h.t

  (* Neutralize a dead thread: a slot of [max_int] reads as quiescent
     in every future epoch, so the thread never blocks an advance
     again (and a detached slot never blocks one while free). *)
  let clear t ~tid = Prim.write t.res.(tid) max_int

  (* Neutralization recovery.  QSBR protection lives in the
     quiescence announcement, not [start_op] (a no-op here): like
     attach, re-publish the current epoch so the retried operation
     does not read as "always quiescent" while it holds references. *)
  let resume h =
    publish h.t ~tid:h.tid;
    start_op h
end

module Make (A : ADVANCE) = Tracker_kernel.Make (Policy (A))

(* The sound scheme: strictly e -> e+1 by CAS, so racing advancers
   collapse into one grace period. *)
include Make (struct
    let name = "QSBR"
    let summary =
      "RCU-style quiescent states at op end; zero read overhead, epoch \
       frozen by any non-quiescing thread"
    let advance epoch ~expected =
      ignore (Epoch.advance_cas epoch ~expected)
  end)

(* The grace-period-skip oracle of DESIGN.md §5a.3: an unconditional
   increment lets two advancers that both validated against the same
   epoch move it twice, freeing blocks a non-quiescent reader still
   holds.  Demonstration only — [Ibr_check] finds the use-after-free
   as a minimal schedule witness. *)
module Noncas = struct
  include Make (struct
      let name = "QSBR-noncas"
      let summary =
        "UNSOUND QSBR advance: unconditional increment lets racing \
         advancers skip a grace period; kept as a demonstration oracle"
      let advance epoch ~expected:_ = Epoch.advance epoch
    end)
end
