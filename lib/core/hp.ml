(* Hazard pointers (Michael [20]; paper §2.3).

   One block-granularity reservation per slot.  The protect protocol:
   read the cell, publish the target to a hazard slot, fence, re-read
   the cell; only if unchanged may the block be dereferenced.  The
   per-read fence is the scheme's defining cost; precision (exactly
   the in-use blocks are reserved) is its defining benefit. *)

open Tracker_kernel

module Policy = struct
  let name = "HP"

  let props = {
    Tracker_intf.robust = true;
    needs_unreserve = true;
    mutable_pointers = true;
    bounded_slots = true;
    pointer_tag_words = 0;
    fence_per_read = true;
    summary =
      "copy of every active pointer; precise but fence per read and \
       explicit unreserve";
  }

  include Default_hooks
  include Plain_ops

  (* A hazard slot holds the view the protected read returned: the
     block it targets is what the slot protects (the tag needs no
     protection), and publishing the view already in hand boxes
     nothing.  [rows.(tid).(slot)]; a slot holding a [Null] view is
     empty, and [empty] is the one null view every cleared slot
     holds. *)
  type 'a res = { rows : 'a View.t Atomic.t array array; empty : 'a View.t }
  type 'a state = 'a View.t Atomic.t array   (* this thread's row *)

  let epoch = No_epoch

  let create_res ~threads (cfg : Tracker_intf.config) =
    let empty = View.make None in
    { rows =
        Array.init threads (fun _ ->
          Array.init cfg.slots (fun _ ->
            Ibr_runtime.Padded.copy (Atomic.make empty)));
      empty }

  let create_state t ~tid = t.res.rows.(tid)

  (* Michael's scan: snapshot all hazard slots into an id set, then
     sweep the local retired store against membership.  An opaque
     predicate — blocks carry no retire epochs here, so the bucket
     store degenerates to per-block tests.  The id table is reused
     across sweeps so a scan does not allocate (and regrow) a fresh
     one; cleared, not reset, to keep its buckets.  One per
     reclaimer: the background service sweeps with its own. *)
  let source t =
    let hazard_scratch : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    fun () ->
      Hashtbl.clear hazard_scratch;
      let entries = ref 0 in
      Array.iter (fun row ->
        Array.iter (fun slot ->
          Prim.charge_scan ();
          incr entries;
          match Atomic.get slot with
          | View.Null _ -> ()
          | View.Ptr { target = b; _ } ->
            Hashtbl.replace hazard_scratch (Block.id b) ())
          row)
        t.res.rows;
      Tracker_common.Sweep_stats.note_snapshot ~entries:!entries
        ~cycles:(!entries * !Prim.costs.Ibr_runtime.Cost.scan_reservation);
      Reclaimer.Predicate (fun b -> Hashtbl.mem hazard_scratch (Block.id b))

  (* Expire every hazard slot in the row.  A released row is exactly
     a fresh row's state: no hazard published until the first
     protected read. *)
  let clear t ~tid =
    Array.iter (fun slot -> Prim.write slot t.res.empty) t.res.rows.(tid)

  let start_op h = h.hwm <- -1

  (* Hazard pointers are per-read, so after [clear] a fresh
     [start_op] suffices: the retried traversal re-publishes each
     hazard as it reads. *)
  let resume = start_op

  (* Clear only the slots this operation actually used. *)
  let end_op h =
    let row = h.st in
    for i = 0 to h.hwm do
      match Prim.read row.(i) with
      | View.Null _ -> ()
      | View.Ptr _ ->
        Prim.write row.(i) h.t.res.empty;
        Ibr_obs.Probe.unreserve ~slot:i
    done;
    h.hwm <- -1

  (* The protect loop: publish what was read, fence, re-read; retry
     until the cell still holds the published view. *)
  let rec protect cell ~slot p =
    let v = Plain_ptr.read p in
    match v with
    | View.Null _ -> v   (* null needs no protection *)
    | View.Ptr _ ->
      Prim.write cell v;
      Ibr_obs.Probe.reserve ~slot;
      Prim.fence ();
      let v' = Plain_ptr.read p in
      if v == v' then v else protect cell ~slot p

  let read h ~slot p =
    if h.hwm < slot then h.hwm <- slot;
    protect h.st.(slot) ~slot p

  let read_root h p = read h ~slot:0 p

  let unreserve h ~slot =
    Prim.write h.st.(slot) h.t.res.empty;
    Ibr_obs.Probe.unreserve ~slot

  (* Copy a protection between slots: the target is already protected
     by [src], so no fence or re-validation is needed. *)
  let reassign h ~src ~dst =
    if h.hwm < dst then h.hwm <- dst;
    let row = h.st in
    Prim.local 1;
    Prim.write row.(dst) (Prim.read row.(src));
    Ibr_obs.Probe.reserve ~slot:dst
end

include Make (Policy)
