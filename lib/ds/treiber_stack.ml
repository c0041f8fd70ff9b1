(* Treiber's lock-free stack [26] — the paper's §3.1 example of a
   persistent structure (immutable [next] pointers, all mutation
   through the top-of-stack pointer), and the simplest illustration
   of the reclamation problem: a pop must not free a node another
   thread's pop is still inspecting.

   Not part of the figure lineup (the paper benchmarks maps); used by
   the quickstart, the POIBR examples, and the tests. *)

open Ibr_core
open Ds_common

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

  include Lifecycle (T) (struct
      type nonrec node = node and t = t
      let name = name and slots_needed = slots_needed
      let tracker t = t.tracker
    end)

  let create ~threads cfg =
    let tracker = create_tracker ~threads cfg in
    { tracker; top = T.make_ptr tracker None }

  let push h value =
    wrap h (fun () ->
      let rec attempt () =
        let topv = T.read_root h.th h.ds.top in
        (* Mask allocation through the linearizing CAS (and the
           loser's dealloc): a restart signal inside would leak the
           fresh node or re-push a landed one.  The top re-read on
           failure stays outside, restartable. *)
        let ok =
          committed (fun () ->
            let b =
              T.alloc h.th
                { value; next = T.make_ptr h.ds.tracker (View.target topv) }
            in
            if T.cas h.th h.ds.top ~expected:topv (Some b) then true
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
        let topv = T.read_root h.th h.ds.top in
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
            committed (fun () ->
              if T.cas h.th h.ds.top ~expected:topv (View.target nextv)
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
      let topv = T.read_root h.th h.ds.top in
      match topv with
      | View.Null _ -> None
      | View.Ptr { target = b; _ } -> Some (Block.get b).value)

  let is_empty h = peek h = None

  (* Sequential-context dump, top first. *)
  let to_list t =
    sequential t.tracker (fun th ->
      let rec go acc v =
        match v with
        | View.Null _ -> List.rev acc
        | View.Ptr { target = b; _ } ->
          let n = Block.get b in
          go (n.value :: acc) (T.read th ~slot:0 n.next)
      in
      go [] (T.read th ~slot:0 t.top))

  (* Quiescent structural check: the chain from [top] is acyclic
     (bounded by the allocator's live count) and touches no reclaimed
     block. *)
  let check_invariants t =
    sequential t.tracker (fun th ->
      let limit = (allocator_stats t).live + 1 in
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
      go 0 (T.read th ~slot:0 t.top))

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
