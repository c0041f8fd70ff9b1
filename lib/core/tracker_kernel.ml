(* The tracker lifecycle, written once (DESIGN.md §2a).

   The paper's schemes differ only in what a thread reserves and how a
   sweep tests a retired block against those reservations (Fig. 1's
   API over §2's epochs and hazards and §3's intervals).  Everything
   else — the global epoch, the allocator and its pressure hooks, the
   census of thread slots, each slot's retirement path (an inline
   reclaimer or the background handoff queue), eject/recover and the
   detach order — is the same for every scheme, and lives here.  A
   scheme is a [POLICY]; [Make] turns it into a
   [Tracker_intf.TRACKER].  NoMM and UnsafeFree keep their own files:
   they have no reclaimer, and folding them in would make the kernel
   branch on which scheme it serves.

   The policy's hot operations (start_op … reassign) are re-exported
   as the very same closures, with no wrapper: the build has no
   flambda, so a wrapper would add an indirect call to every read.
   For the same reason, state that [read] touches on every call (HP's
   and HE's slot high-water mark) is a direct field of the handle,
   and the policy's per-handle state holds the thread's own
   reservation cell or row, looked up once at registration.  A
   protected read allocates nothing: every policy's retry loop is a
   top-level recursive function, not a closure built per call
   (DESIGN.md §1a). *)

type ('a, 'r) t = {
  epoch : Epoch.t;
  res : 'r;                   (* the policy's reservation table *)
  alloc : 'a Alloc.t;
  cfg : Tracker_intf.config;
  census : 'a Handoff.path Tracker_common.Census.t;
  mutable handoff : 'a Handoff.t option;
}

type ('a, 'r, 's) handle = {
  t : ('a, 'r) t;
  tid : int;
  alloc_counter : int ref;    (* allocations since this thread's last tick *)
  mutable hwm : int;          (* highest slot used this op (HP, HE) *)
  st : 's;                    (* the policy's per-handle state: at
                                 least this thread's reservation cell
                                 or row *)
  path : 'a Handoff.path;
}

(* How a scheme uses the global epoch.  [Allocation] schemes tick it
   every [epoch_freq] allocations per thread (§3's convention, Fig. 2
   lines 15–17 / Fig. 5 lines 31–33) and say whether stamping a birth
   epoch is a charged shared read.  [Quiescence] schemes (QSBR,
   Fraser) advance it from their [prepare] hook instead.  HP has no
   epoch: its blocks carry no lifetimes and its sweeps never gate. *)
type birth_read = Uncharged | Charged

type epoch_use =
  | No_epoch
  | Quiescence
  | Allocation of birth_read

module type POLICY = sig
  val name : string
  val props : Tracker_intf.properties

  type 'a res
  (** The reservation table every thread publishes into. *)

  type 'a state
  (** Per-handle state beyond the kernel's, starting with the thread's
      own slice of the reservation table. *)

  type 'a ptr

  type 'a kt := ('a, 'a res) t
  type 'a kh := ('a, 'a res, 'a state) handle

  val epoch : epoch_use
  val create_res : threads:int -> Tracker_intf.config -> 'a res

  val create_state : 'a kt -> tid:int -> 'a state
  (** Built once per handle, at [register] or [attach]. *)

  val source : 'a kt -> unit -> 'a Reclaimer.test
  (** Applied once per reclaimer (HP allocates its reused hazard-id
      table there); the result builds each sweep's conflict test. *)

  val clear : 'a kt -> tid:int -> unit
  (** Expire thread [tid]'s reservations ([eject]). *)

  val resume : 'a kh -> unit
  (** Re-protect after [recover] expired the handle's reservations;
      every sound policy ends with its [start_op]. *)

  (** Hooks where schemes really differ; {!Default_hooks} makes each a
      no-op. *)

  val retire_backend : Reclaimer.backend -> Reclaimer.backend
  val prepare : 'a kt -> unit
  (** Before every cadence and pressure sweep (QSBR/Fraser advance
      their epoch here, so a closed gate cannot freeze it). *)

  val before_force : 'a kh -> unit
  (** Before [force_empty]'s sweep; the caller is between operations. *)

  val on_attach : 'a kt -> tid:int -> unit

  (** Hot operations, re-exported by [Make] unchanged. *)

  val start_op : 'a kh -> unit
  val end_op : 'a kh -> unit
  val make_ptr : 'a kt -> ?tag:int -> 'a Block.t option -> 'a ptr
  val read : 'a kh -> slot:int -> 'a ptr -> 'a View.t
  val read_root : 'a kh -> 'a ptr -> 'a View.t
  val write : 'a kh -> 'a ptr -> ?tag:int -> 'a Block.t option -> unit

  val cas :
    'a kh -> 'a ptr -> expected:'a View.t -> ?tag:int -> 'a Block.t option ->
    bool

  val unreserve : 'a kh -> slot:int -> unit
  val reassign : 'a kh -> src:int -> dst:int -> unit
end

module Default_hooks = struct
  let retire_backend b = b
  let prepare _ = ()
  let before_force _ = ()
  let on_attach _ ~tid:_ = ()
end

(* Uninstrumented pointer operations over a plain cell: every scheme
   whose protection lives in [start_op] (the epoch family, POIBR's
   interior reads). *)
module Plain_ops = struct
  type 'a ptr = 'a Plain_ptr.t

  let make_ptr _ ?tag target = Plain_ptr.make ?tag target
  let read _ ~slot:_ p = Plain_ptr.read p
  let read_root _ p = Plain_ptr.read p
  let write _ p ?tag target = Plain_ptr.write p ?tag target
  let cas _ p ~expected ?tag target = Plain_ptr.cas p ~expected ?tag target
  let unreserve _ ~slot:_ = ()
  let reassign _ ~src:_ ~dst:_ = ()
end

module Make (P : POLICY) = struct
  let name = P.name
  let props = P.props

  type nonrec 'a t = ('a, 'a P.res) t
  type nonrec 'a handle = ('a, 'a P.res, 'a P.state) handle
  type 'a ptr = 'a P.ptr

  let epoch_value =
    match P.epoch with
    | No_epoch -> fun _ -> 0
    | Quiescence | Allocation _ -> fun t -> Epoch.peek t.epoch

  (* [tid] only scopes the free-list: the conflict source reads global
     state, so the same constructor serves per-slot reclaimers and the
     background service's. *)
  let make_reclaimer t ~tid =
    Reclaimer.create
      ~backend:(P.retire_backend t.cfg.Tracker_intf.retire_backend)
      ~empty_freq:t.cfg.Tracker_intf.empty_freq
      ~prepare:(fun () -> P.prepare t)
      ~current_epoch:(fun () -> epoch_value t)
      ~source:(P.source t)
      ~free:(fun b -> Alloc.free t.alloc ~tid b)
      ()

  let create ~threads (cfg : Tracker_intf.config) =
    Tracker_intf.validate ~threads cfg;
    (* The background service frees from its own thread id, one past
       the mutators'. *)
    let t = {
      epoch = Epoch.create ();
      res = P.create_res ~threads cfg;
      alloc =
        Alloc.create ~reuse:cfg.reuse
          ~threads:(threads + if cfg.background_reclaim then 1 else 0) ();
      cfg;
      census = Tracker_common.Census.create threads;
      handoff = None;
    } in
    if cfg.background_reclaim then
      t.handoff <-
        Some
          (Handoff.create ~producers:threads (make_reclaimer t ~tid:threads));
    t

  let path_of t tid =
    match t.handoff with
    | Some h -> Handoff.Queued h
    | None -> Handoff.Direct (make_reclaimer t ~tid)

  let new_handle t tid path =
    Alloc.set_pressure_hook t.alloc ~tid (fun () ->
      Handoff.path_pressure path);
    { t; tid; alloc_counter = ref 0; hwm = -1; st = P.create_state t ~tid;
      path }

  let register t ~tid = new_handle t tid (path_of t tid)

  (* Dynamic registration: claim a free census slot ([None] when all
     are taken).  The slot's retirement path is created once and
     adopted by later occupants, so retirements a departing thread
     could not yet free stay owned by the slot. *)
  let attach t =
    match Tracker_common.Census.try_attach t.census ~make:(path_of t) with
    | None -> None
    | Some (tid, path) ->
      P.on_attach t ~tid;
      Some (new_handle t tid path)

  let handle_tid h = h.tid

  (* Epoch stamping, chosen once per scheme rather than per call. *)
  let alloc =
    let tick h =
      Epoch.tick h.t.epoch ~counter:h.alloc_counter ~freq:h.t.cfg.epoch_freq
    in
    match P.epoch with
    | No_epoch -> fun h payload -> Alloc.alloc h.t.alloc ~tid:h.tid payload
    | Quiescence ->
      fun h payload ->
        let b = Alloc.alloc h.t.alloc ~tid:h.tid payload in
        Block.set_birth_epoch b (Epoch.peek h.t.epoch);
        b
    | Allocation Uncharged ->
      fun h payload ->
        tick h;
        let b = Alloc.alloc h.t.alloc ~tid:h.tid payload in
        Block.set_birth_epoch b (Epoch.peek h.t.epoch);
        b
    | Allocation Charged ->
      fun h payload ->
        tick h;
        let b = Alloc.alloc h.t.alloc ~tid:h.tid payload in
        Block.set_birth_epoch b (Epoch.read h.t.epoch);
        b

  let dealloc h b = Alloc.free_unpublished h.t.alloc ~tid:h.tid b

  let retire =
    match P.epoch with
    | No_epoch ->
      fun h b ->
        Block.transition_retire b;
        Handoff.path_add h.path ~tid:h.tid b
    | Quiescence | Allocation _ ->
      fun h b ->
        Block.transition_retire b;
        Block.set_retire_epoch b (Epoch.read h.t.epoch);
        Handoff.path_add h.path ~tid:h.tid b

  let start_op = P.start_op
  let end_op = P.end_op
  let make_ptr = P.make_ptr
  let read = P.read
  let read_root = P.read_root
  let write = P.write
  let cas = P.cas
  let unreserve = P.unreserve
  let reassign = P.reassign

  let retired_count h = Handoff.path_count h.path

  (* A queued path's blocks belong to the service, which sweeps them
     under its drain lock; sweeping them here too would race it and
     free the same block twice. *)
  let force_empty h =
    P.before_force h;
    match h.path with
    | Handoff.Direct rc -> Reclaimer.force rc
    | Handoff.Queued _ -> ()

  let allocator t = t.alloc
  let reclaim_service t = Option.map Handoff.service t.handoff

  (* Neutralize a dead (or suspended) thread: expire its reservations. *)
  let eject t ~tid = P.clear t ~tid

  (* Neutralization recovery: self-expire, then re-protect. *)
  let recover h =
    eject h.t ~tid:h.tid;
    P.resume h

  (* Dynamic deregistration, the one place its order lives: a final
     sweep while still registered (none on a queued path), publish the
     quiescent reservation, return the magazines to the depot, then
     release the census slot — so a joiner reusing the slot can never
     alias a reservation this thread still held.  [final] is the final
     sweep; only the EBR-noflush oracle passes anything but
     [force_empty]. *)
  let detach_with ~final h =
    final h;
    eject h.t ~tid:h.tid;
    Alloc.flush_magazines h.t.alloc ~tid:h.tid;
    Tracker_common.Census.detach h.t.census ~tid:h.tid

  let detach h = detach_with ~final:force_empty h
end
