(* The "No MM" baseline of §5: retire is recorded but nothing is ever
   reclaimed.  Fastest possible (zero instrumentation), leaks
   everything — the throughput ceiling in Fig. 8. *)

let name = "NoMM"

let props = {
  Tracker_intf.robust = false;
  needs_unreserve = false;
  mutable_pointers = true;
  bounded_slots = false;
  pointer_tag_words = 0;
  fence_per_read = false;
  summary = "never reclaims; throughput ceiling, unbounded space";
}

type 'a t = {
  alloc : 'a Alloc.t;
  cfg : Tracker_intf.config;
  census : 'a Reclaimer.t Tracker_common.Census.t;
}

type 'a handle = {
  t : 'a t;
  tid : int;
  rc : 'a Reclaimer.t;
}

type 'a ptr = 'a Plain_ptr.t

let create ~threads (cfg : Tracker_intf.config) =
  Tracker_intf.validate ~threads cfg;
  (* Nothing ever sweeps, so a background reclaimer has no work:
     [background_reclaim] is ignored and [reclaim_service] is [None]. *)
  { alloc = Alloc.create ~reuse:cfg.reuse ~threads ();
    cfg;
    census = Tracker_common.Census.create threads }

(* empty_freq:0 — the reclaimer only stores; nothing ever sweeps. *)
let make_rc t ~tid =
  Reclaimer.create ~empty_freq:0
    ~source:(fun () -> Reclaimer.Predicate (fun _ -> true))
    ~free:(fun b -> Alloc.free t.alloc ~tid b)
    ()

let register t ~tid = { t; tid; rc = make_rc t ~tid }

(* Dynamic registration: only the census slot and the slot's retired
   store matter — there are no reservations to initialize. *)
let attach t =
  match Tracker_common.Census.try_attach t.census ~make:(fun tid ->
    make_rc t ~tid)
  with
  | None -> None
  | Some (tid, rc) -> Some { t; tid; rc }

let handle_tid h = h.tid

let alloc h payload = Alloc.alloc h.t.alloc ~tid:h.tid payload

let dealloc h b = Alloc.free_unpublished h.t.alloc ~tid:h.tid b

let retire h b =
  Block.transition_retire b;
  Reclaimer.add h.rc b

let start_op _ = ()
let end_op _ = ()

let make_ptr _ ?tag target = Plain_ptr.make ?tag target
let read _ ~slot:_ p = Plain_ptr.read p
let read_root h p = read h ~slot:0 p
let write _ p ?tag target = Plain_ptr.write p ?tag target
let cas _ p ~expected ?tag target = Plain_ptr.cas p ~expected ?tag target
let unreserve _ ~slot:_ = ()
let reassign _ ~src:_ ~dst:_ = ()

let retired_count h = Reclaimer.count h.rc
let force_empty _ = ()
let allocator t = t.alloc
let epoch_value _ = 0
let reclaim_service _ = None

(* Holds no reservations: nothing to expire. *)
let eject _ ~tid:_ = ()

(* Nothing to drop, nothing to re-protect. *)
let recover _ = ()

(* Dynamic deregistration: the slot's retired store keeps the leaked
   blocks (that is the scheme); only the magazines and the slot are
   released. *)
let detach h =
  Alloc.flush_magazines h.t.alloc ~tid:h.tid;
  Tracker_common.Census.detach h.t.census ~tid:h.tid
