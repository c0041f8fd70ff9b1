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

  (* A hazard slot holds a raw block reference (not a view): marks
     need no protection, only the block does.  [res.(tid).(slot)]. *)
  type 'a res = 'a Block.t option Atomic.t array array
  type state = unit

  let epoch = No_epoch

  let create_res ~threads (cfg : Tracker_intf.config) =
    Array.init threads (fun _ ->
      Array.init cfg.slots (fun _ ->
        Ibr_runtime.Padded.copy (Atomic.make None)))

  let create_state () = ()

  (* Michael's scan: snapshot all hazard slots into an id set, then
     sweep the local retired store against membership.  An opaque
     predicate — blocks carry no retire epochs here, so the bucketed
     backends degenerate to per-block tests (and, with the epoch
     peek pinned at 0, Gated never gates).  The id table is reused
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
          | None -> ()
          | Some b -> Hashtbl.replace hazard_scratch (Block.id b) ())
          row)
        t.res;
      Tracker_common.Sweep_stats.note_snapshot ~entries:!entries
        ~cycles:(!entries * !Prim.costs.Ibr_runtime.Cost.scan_reservation);
      Reclaimer.Predicate (fun b -> Hashtbl.mem hazard_scratch (Block.id b))

  (* Expire every hazard slot in the row.  A released row is exactly
     a fresh row's state: no hazard published until the first
     protected read. *)
  let clear t ~tid = Array.iter (fun slot -> Prim.write slot None) t.res.(tid)

  let start_op h = h.hwm <- -1

  (* Hazard pointers are per-read, so after [clear] a fresh
     [start_op] suffices: the retried traversal re-publishes each
     hazard as it reads. *)
  let resume = start_op

  (* Clear only the slots this operation actually used. *)
  let end_op h =
    let row = h.t.res.(h.tid) in
    for i = 0 to h.hwm do
      if Prim.read row.(i) <> None then begin
        Prim.write row.(i) None;
        Ibr_obs.Probe.unreserve ~slot:i
      end
    done;
    h.hwm <- -1

  let read h ~slot p =
    if h.hwm < slot then h.hwm <- slot;
    let cell = h.t.res.(h.tid).(slot) in
    let rec loop () =
      let v = Plain_ptr.read p in
      (match v with
       | View.Null _ -> v   (* null needs no protection *)
       | View.Ptr { target = b; _ } ->
         Prim.write cell (Some b);
         Ibr_obs.Probe.reserve ~slot;
         Prim.fence ();
         let v' = Plain_ptr.read p in
         if v == v' then v else loop ())
    in
    loop ()

  let read_root h p = read h ~slot:0 p

  let unreserve h ~slot =
    Prim.write h.t.res.(h.tid).(slot) None;
    Ibr_obs.Probe.unreserve ~slot

  (* Copy a protection between slots: the target is already protected
     by [src], so no fence or re-validation is needed. *)
  let reassign h ~src ~dst =
    if h.hwm < dst then h.hwm <- dst;
    let row = h.t.res.(h.tid) in
    Prim.local 1;
    Prim.write row.(dst) (Prim.read row.(src));
    Ibr_obs.Probe.reserve ~slot:dst
end

include Make (Policy)
