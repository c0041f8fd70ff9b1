(* Hazard eras (Ramalhete & Correia [25]; paper §2.3).

   HP's slot discipline with epochs as the reservation currency: a
   slot holds the era in which a pointer was read, and a block is
   reclaimable only when no reserved era falls within its
   [birth, retire] lifetime.  The protect loop publishes the current
   era and fences only when the era has changed since the slot's last
   publication — eras change rarely, so the amortized per-read cost is
   far below HP's. *)

open Tracker_kernel

(* Era 0 = empty slot (global era starts at 1). *)
let no_era = 0

module Policy = struct
  let name = "HE"

  let props = {
    Tracker_intf.robust = true;
    needs_unreserve = true;
    mutable_pointers = true;
    bounded_slots = true;
    pointer_tag_words = 0;
    fence_per_read = false;
    summary =
      "era per active pointer; less precise than HP, far fewer fences";
  }

  include Default_hooks
  include Plain_ops

  type 'a res = int Atomic.t array array   (* res.(tid).(slot) *)
  type 'a state = int Atomic.t array       (* this thread's row *)

  let epoch = Allocation Charged

  let create_res ~threads (cfg : Tracker_intf.config) =
    Array.init threads (fun _ ->
      Array.init cfg.slots (fun _ ->
        Ibr_runtime.Padded.copy (Atomic.make no_era)))

  let create_state t ~tid = t.res.(tid)

  (* A block survives if any reserved era intersects its lifetime.
     The era table is read once into a flat array, then digested
     into a sorted snapshot so each block's test is a binary search
     rather than a walk of every reserved era. *)
  let source t () =
    let threads = Array.length t.res in
    let slots = t.cfg.Tracker_intf.slots in
    let eras = Array.make (threads * slots) no_era in
    Array.iteri (fun i row ->
      Array.iteri (fun j slot ->
        Prim.charge_scan ();
        eras.((i * slots) + j) <- Atomic.get slot)
        row)
      t.res;
    Tracker_common.Sweep_stats.note_snapshot ~entries:(threads * slots)
      ~cycles:
        (threads * slots * !Prim.costs.Ibr_runtime.Cost.scan_reservation);
    Reclaimer.intervals
      (Tracker_common.Sweep_snapshot.of_points ~none:no_era eras)

  (* Expire every era slot in the row; a released row is a fresh
     row's state. *)
  let clear t ~tid =
    Array.iter (fun slot -> Prim.write slot no_era) t.res.(tid)

  let start_op h = h.hwm <- -1
  let resume = start_op

  let end_op h =
    let row = h.st in
    for i = 0 to h.hwm do
      if Prim.read row.(i) <> no_era then begin
        Prim.write row.(i) no_era;
        Ibr_obs.Probe.unreserve ~slot:i
      end
    done;
    h.hwm <- -1

  (* get_protected: return a pointer only if it was read while the
     current era was already published in [slot]; otherwise publish
     the new era, fence, and re-read. *)
  let rec protect epoch cell ~slot p published =
    let v = Plain_ptr.read p in
    let era = Epoch.read epoch in
    if era = published then v
    else begin
      Prim.write cell era;
      Ibr_obs.Probe.reserve ~slot;
      Prim.fence ();
      protect epoch cell ~slot p era
    end

  let read h ~slot p =
    if h.hwm < slot then h.hwm <- slot;
    let cell = h.st.(slot) in
    protect h.t.epoch cell ~slot p (Prim.read cell)

  let read_root h p = read h ~slot:0 p

  let unreserve h ~slot =
    Prim.write h.st.(slot) no_era;
    Ibr_obs.Probe.unreserve ~slot

  let reassign h ~src ~dst =
    if h.hwm < dst then h.hwm <- dst;
    let row = h.st in
    Prim.local 1;
    Prim.write row.(dst) (Prim.read row.(src));
    Ibr_obs.Probe.reserve ~slot:dst
end

include Make (Policy)
