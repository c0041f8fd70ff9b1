(* Hazard pointers (Michael [20]; paper §2.3).

   One block-granularity reservation per slot.  The protect protocol:
   read the cell, publish the target to a hazard slot, fence, re-read
   the cell; only if unchanged may the block be dereferenced.  The
   per-read fence is the scheme's defining cost; precision (exactly
   the in-use blocks are reserved) is its defining benefit. *)

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

(* A hazard slot holds a raw block reference (not a view): marks need
   no protection, only the block does. *)
type 'a slot_table = 'a Block.t option Atomic.t array array

type 'a t = {
  slots : 'a slot_table;
  alloc : 'a Alloc.t;
  cfg : Tracker_intf.config;
  threads : int;
  census : 'a Handoff.path Tracker_common.Census.t;
  mutable handoff : 'a Handoff.t option;
}

type 'a handle = {
  t : 'a t;
  tid : int;
  mutable hwm : int;   (* highest slot used this op, for cheap end_op *)
  path : 'a Handoff.path;
}

type 'a ptr = 'a Plain_ptr.t

(* Michael's scan: snapshot all hazard slots into an id set, then
   sweep the local retired store against membership.  An opaque
   predicate — blocks carry no retire epochs here, so the bucketed
   backends degenerate to per-block tests (and, with the epoch peek
   pinned at 0, Gated never gates). *)
let make_reclaimer t ~tid =
  (* Reused across sweeps so a scan does not allocate (and regrow) a
     fresh table; cleared, not reset, to keep its buckets.  One per
     reclaimer: the background service sweeps with its own scratch. *)
  let hazard_scratch : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let source () =
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
      t.slots;
    Tracker_common.Sweep_stats.note_snapshot ~entries:!entries
      ~cycles:(!entries * !Prim.costs.Ibr_runtime.Cost.scan_reservation);
    Reclaimer.Predicate (fun b -> Hashtbl.mem hazard_scratch (Block.id b))
  in
  Reclaimer.create ~backend:t.cfg.Tracker_intf.retire_backend
    ~empty_freq:t.cfg.Tracker_intf.empty_freq
    ~current_epoch:(fun () -> 0)
    ~source
    ~free:(fun b -> Alloc.free t.alloc ~tid b)
    ()

let create ~threads (cfg : Tracker_intf.config) =
  Tracker_intf.validate ~threads cfg;
  let t = {
    slots =
      Array.init threads (fun _ ->
        Array.init cfg.slots (fun _ -> Atomic.make None));
    alloc =
      Alloc.create ~reuse:cfg.reuse ~magazine_size:cfg.magazine_size
        ~threads:(threads + if cfg.background_reclaim then 1 else 0) ();
    cfg;
    threads;
    census = Tracker_common.Census.create threads;
    handoff = None;
  } in
  if cfg.background_reclaim then
    t.handoff <-
      Some
        (Handoff.create ~producers:threads ~batch:cfg.handoff_batch
           (make_reclaimer t ~tid:threads));
  t

let register t ~tid =
  let path =
    match t.handoff with
    | Some h -> Handoff.Queued h
    | None -> Handoff.Direct (make_reclaimer t ~tid)
  in
  Alloc.set_pressure_hook t.alloc ~tid (fun () -> Handoff.path_pressure path);
  { t; tid; hwm = -1; path }

(* Dynamic registration.  A released row was cleared by the leaver's
   detach, which is exactly a fresh row's state: no hazard published
   until the first protected read. *)
let attach t =
  match
    Tracker_common.Census.try_attach t.census ~make:(fun tid ->
      match t.handoff with
      | Some h -> Handoff.Queued h
      | None -> Handoff.Direct (make_reclaimer t ~tid))
  with
  | None -> None
  | Some (tid, path) ->
    Alloc.set_pressure_hook t.alloc ~tid (fun () ->
      Handoff.path_pressure path);
    Some { t; tid; hwm = -1; path }

let handle_tid h = h.tid

let alloc h payload = Alloc.alloc h.t.alloc ~tid:h.tid payload
let dealloc h b = Alloc.free_unpublished h.t.alloc ~tid:h.tid b

let retire h b =
  Block.transition_retire b;
  Handoff.path_add h.path ~tid:h.tid b

let start_op h = h.hwm <- -1

(* Clear only the slots this operation actually used. *)
let end_op h =
  let row = h.t.slots.(h.tid) in
  for i = 0 to h.hwm do
    if Prim.read row.(i) <> None then begin
      Prim.write row.(i) None;
      Ibr_obs.Probe.unreserve ~slot:i
    end
  done;
  h.hwm <- -1

let make_ptr _ ?tag target = Plain_ptr.make ?tag target

let read h ~slot p =
  if h.hwm < slot then h.hwm <- slot;
  let cell = h.t.slots.(h.tid).(slot) in
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
let write _ p ?tag target = Plain_ptr.write p ?tag target
let cas _ p ~expected ?tag target = Plain_ptr.cas p ~expected ?tag target

let unreserve h ~slot =
  Prim.write h.t.slots.(h.tid).(slot) None;
  Ibr_obs.Probe.unreserve ~slot

(* Copy a protection between slots: the target is already protected by
   [src], so no fence or re-validation is needed. *)
let reassign h ~src ~dst =
  if h.hwm < dst then h.hwm <- dst;
  let row = h.t.slots.(h.tid) in
  Prim.local 1;
  Prim.write row.(dst) (Prim.read row.(src));
  Ibr_obs.Probe.reserve ~slot:dst

let retired_count h = Handoff.path_count h.path

let force_empty h =
  Handoff.path_drain h.path ~tid:h.tid;
  Reclaimer.force (Handoff.path_reclaimer h.path)

let allocator t = t.alloc
let epoch_value _ = 0
let reclaim_service t = Option.map Handoff.service t.handoff

(* Neutralize a dead thread: clear every hazard slot in its row.  The
   scratch flush unstrands batched handoff retires. *)
let eject t ~tid =
  (match t.handoff with Some h -> Handoff.flush_own h ~tid | None -> ());
  Array.iter (fun slot -> Prim.write slot None) t.slots.(tid)

(* Neutralization recovery: hazard pointers are per-read, so dropping
   the row plus a fresh [start_op] suffices — the retried traversal
   re-publishes each hazard as it reads. *)
let recover h =
  eject h.t ~tid:h.tid;
  start_op h

(* Dynamic deregistration: final sweep, clear the hazard row, flush
   the magazines, release the slot. *)
let detach h =
  force_empty h;
  eject h.t ~tid:h.tid;
  Alloc.flush_magazines h.t.alloc ~tid:h.tid;
  Tracker_common.Census.detach h.t.census ~tid:h.tid
