(* Treiber's lock-free stack [26] — the paper's §3.1 example of a
   persistent structure (immutable [next] pointers, all mutation
   through the top-of-stack pointer), and the simplest illustration
   of the reclamation problem: a pop must not free a node another
   thread's pop is still inspecting.

   Not part of the figure lineup (the paper benchmarks maps); used by
   the quickstart, the POIBR examples, and the tests. *)

open Ibr_core

module Make (T : Tracker_intf.TRACKER) = struct
  let name = "treiber-stack"
  let compatible (_ : Tracker_intf.properties) = true
  let slots_needed = 2

  type node = {
    value : int;
    next : node T.ptr;    (* immutable after construction *)
  }

  type t = {
    tracker : node T.t;
    top : node T.ptr;
  }

  type handle = {
    stack : t;
    th : node T.handle;
    stats : Ds_common.op_stats;
    start_op : unit -> unit;  (* the operation bracket's tracker calls, *)
    end_op : unit -> unit;    (* built once per handle (DESIGN.md §1a) *)
    recover : unit -> unit;
  }

  let create ~threads cfg =
    Ds_common.check_slots ~rideable:name ~slots_needed (module T) cfg;
    let tracker = T.create ~threads cfg in
    { tracker; top = T.make_ptr tracker None }

  let make_handle stack th =
    { stack; th; stats = Ds_common.make_op_stats ();
      start_op = (fun () -> T.start_op th);
      end_op = (fun () -> T.end_op th);
      recover = (fun () -> T.recover th) }

  let register stack ~tid = make_handle stack (T.register stack.tracker ~tid)
  let attach stack = Option.map (make_handle stack) (T.attach stack.tracker)

  let detach h = T.detach h.th
  let handle_tid h = T.handle_tid h.th

  let wrap h f =
    Ds_common.with_op ~stats:h.stats ~start_op:h.start_op ~end_op:h.end_op
      ~on_neutralize:h.recover f

  let push h value =
    wrap h (fun () ->
      let rec attempt () =
        let topv = T.read_root h.th h.stack.top in
        (* Mask allocation through the linearizing CAS (and the
           loser's dealloc): a restart signal inside would leak the
           fresh node or re-push a landed one.  The top re-read on
           failure stays outside, restartable. *)
        let ok =
          Ds_common.committed (fun () ->
            let b =
              T.alloc h.th
                { value;
                  next = T.make_ptr h.stack.tracker (View.target topv) }
            in
            if T.cas h.th h.stack.top ~expected:topv (Some b) then true
            else begin
              T.dealloc h.th b;
              false
            end)
        in
        if not ok then attempt ()
      in
      attempt ())

  let pop h =
    wrap h (fun () ->
      let rec attempt () =
        let topv = T.read_root h.th h.stack.top in
        match topv with
        | View.Null _ -> None
        | View.Ptr { target = b; _ } ->
          let n = Block.get b in
          (* Slot 1: slot 0 still protects [b] (its cell is read during
             validation of this next-read). *)
          let nextv = T.read h.th ~slot:1 n.next in
          (* Mask the linearizing swing and the winner's retire as one
             unit: a restarted successful pop would pop twice, and a
             neutralization between CAS and retire would leak the
             node.  No dereference inside ([n] is already loaded). *)
          if
            Ds_common.committed (fun () ->
              if T.cas h.th h.stack.top ~expected:topv (View.target nextv)
              then begin
                T.retire h.th b;
                true
              end
              else false)
          then Some n.value
          else attempt ()
      in
      attempt ())

  let peek h =
    wrap h (fun () ->
      let topv = T.read_root h.th h.stack.top in
      match topv with
      | View.Null _ -> None
      | View.Ptr { target = b; _ } -> Some (Block.get b).value)

  let is_empty h = peek h = None

  let retired_count h = T.retired_count h.th
  let force_empty h = T.force_empty h.th
  let allocator_stats t = Alloc.stats (T.allocator t.tracker)
  let reclaim_service t = T.reclaim_service t.tracker
  let epoch_value t = T.epoch_value t.tracker
  let set_capacity t cap = Alloc.set_capacity (T.allocator t.tracker) cap
  let eject t ~tid = T.eject t.tracker ~tid

  (* Sequential-context dump, top first. *)
  let to_list t =
    let th = T.register t.tracker ~tid:0 in
    T.start_op th;
    let rec go acc v =
      match v with
      | View.Null _ -> List.rev acc
      | View.Ptr { target = b; _ } ->
        let n = Block.get b in
        go (n.value :: acc) (T.read th ~slot:0 n.next)
    in
    let r = go [] (T.read th ~slot:0 t.top) in
    T.end_op th;
    r

  (* Quiescent structural check: the chain from [top] is acyclic
     (bounded by the allocator's live count) and touches no reclaimed
     block. *)
  let check_invariants t =
    let th = T.register t.tracker ~tid:0 in
    T.start_op th;
    let limit = (Alloc.stats (T.allocator t.tracker)).live + 1 in
    let rec go n v =
      match v with
      | View.Null _ -> ()
      | View.Ptr { target = b; _ } ->
        if n > limit then
          failwith "treiber-stack invariant: chain longer than live count";
        if Block.is_reclaimed b then
          failwith "treiber-stack invariant: reachable reclaimed block";
        go (n + 1) (T.read th ~slot:0 (Block.get b).next)
    in
    go 0 (T.read th ~slot:0 t.top);
    T.end_op th

  let map = None

  let queue =
    Some
      {
        Ds_intf.enqueue = push;
        dequeue = pop;
        peek;
        order = Ds_intf.Lifo;
        to_seq_list = to_list;
      }

  let range = None
  let bulk = None
end
