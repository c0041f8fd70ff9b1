(* The Michael & Scott lock-free FIFO queue [21] — the retire-at-head
   churn rideable: every dequeue retires the node the whole consumer
   side is spinning on, so the reclamation scheme is stressed exactly
   where contention concentrates (Hart et al.'s canonical workload).

   Representation: a dummy-headed singly linked list.  [head] points
   at the current dummy; the front element lives in the dummy's
   successor, and a dequeue swings [head] to that successor (which
   becomes the new dummy) and retires the old one.  [tail] may lag by
   at most one node; both enqueuers and dequeuers help it forward.

   Reclamation-safety detail: a dequeue must help [tail] past the old
   dummy *before* swinging [head].  Otherwise [tail] could be left
   pointing at a retired node, and a later enqueue's tail read would
   dereference freed memory — the head-of-queue UAF the
   [queue_dequeue_churn] model-check scenario certifies. *)

open Ibr_core
open Ds_common

module Make (T : Tracker_intf.TRACKER) = struct
  let name = "michael-scott-queue"
  let compatible (p : Tracker_intf.properties) = p.mutable_pointers
  let slots_needed = 3

  type node = {
    value : int;
    next : node T.ptr;
  }

  type t = {
    tracker : node T.t;
    head : node T.ptr;    (* current dummy *)
    tail : node T.ptr;    (* last or second-to-last node *)
  }

  include Lifecycle (T) (struct
      type nonrec node = node and t = t
      let name = name and slots_needed = slots_needed
      let tracker t = t.tracker
    end)

  (* Hazard-slot roles. *)
  let slot_node = 0     (* the head/tail node an attempt anchors on *)
  let slot_next = 1     (* its successor *)
  let slot_tail = 2     (* tail snapshot during a dequeue's help *)

  let create ~threads cfg =
    let tracker = create_tracker ~threads cfg in
    (* The initial dummy needs an allocating handle; tid 0 is
       re-registered by the first worker, which is fine (same pattern
       as the NM tree's sentinel setup). *)
    let h0 = T.register tracker ~tid:0 in
    let dummy = T.alloc h0 { value = 0; next = T.make_ptr tracker None } in
    {
      tracker;
      head = T.make_ptr tracker (Some dummy);
      tail = T.make_ptr tracker (Some dummy);
    }

  let enqueue h value =
    wrap h (fun () ->
      let rec attempt () =
        let tailv = T.read h.th ~slot:slot_node h.ds.tail in
        match tailv with
        | View.Null _ -> assert false    (* tail never goes null *)
        | View.Ptr { target = tb; _ } ->
          let tn = Block.get tb in
          let nextv = T.read h.th ~slot:slot_next tn.next in
          (match nextv with
           | View.Ptr { target = nb; _ } ->
             (* Tail lagging: help it forward, then retry. *)
             ignore (T.cas h.th h.ds.tail ~expected:tailv (Some nb));
             attempt ()
           | View.Null _ ->
             (* Mask allocation through the linearizing link CAS (and
                the loser's dealloc): a restart signal inside would
                leak the fresh node or re-enqueue a landed one.  The
                best-effort tail swing rides inside too — it touches
                only pointer cells, no dereference. *)
             let ok =
               committed (fun () ->
                 let b =
                   T.alloc h.th
                     { value; next = T.make_ptr h.ds.tracker None }
                 in
                 if T.cas h.th tn.next ~expected:nextv (Some b) then begin
                   ignore (T.cas h.th h.ds.tail ~expected:tailv (Some b));
                   true
                 end
                 else begin
                   T.dealloc h.th b;
                   false
                 end)
             in
             if not ok then attempt ())
      in
      attempt ())

  let dequeue h =
    wrap h (fun () ->
      let rec attempt () =
        let headv = T.read h.th ~slot:slot_node h.ds.head in
        match headv with
        | View.Null _ -> assert false    (* head never goes null *)
        | View.Ptr { target = hb; _ } ->
          let hn = Block.get hb in
          let nextv = T.read h.th ~slot:slot_next hn.next in
          let head_still_at hb =
            match T.read h.th ~slot:slot_tail h.ds.head with
            | View.Ptr { target = hb'; _ } -> hb' == hb
            | View.Null _ -> false
          in
          (match nextv with
           | View.Null _ -> None          (* dummy has no successor: empty *)
           | View.Ptr _ when not (head_still_at hb) ->
             (* Head moved between the two reads: [hn.next] was a
                retired dummy's stale field, so its target may already
                be reclaimed — dereferencing it would be the queue's
                use-after-free (the queue_dequeue_churn scenario's
                witness shape).  Head still at [hb] proves neither
                [hb] nor its successor has been retired yet. *)
             attempt ()
           | View.Ptr { target = nb; _ } ->
             (* Help tail past the old dummy BEFORE swinging head:
                once head moves, the dummy is retired, and a lagging
                tail would hand the next enqueuer a freed node. *)
             let tailv = T.read h.th ~slot:slot_tail h.ds.tail in
             (match tailv with
              | View.Ptr { target = tb; _ } when tb == hb ->
                ignore (T.cas h.th h.ds.tail ~expected:tailv (Some nb))
              | _ -> ());
             (* The element rides in the new dummy; read it while
                slot_next protects [nb] (the field is immutable). *)
             let v = (Block.get nb).value in
             (* Mask the linearizing swing and the winner's retire as
                one unit: a restarted successful dequeue would pop a
                second element, and a signal between CAS and retire
                would leak the dummy.  No dereference inside. *)
             if
               committed (fun () ->
                 if
                   T.cas h.th h.ds.head ~expected:headv (View.target nextv)
                 then begin
                   T.retire h.th hb;
                   true
                 end
                 else false)
             then Some v
             else attempt ())
      in
      attempt ())

  let peek h =
    wrap h (fun () ->
      let rec attempt () =
        let headv = T.read h.th ~slot:slot_node h.ds.head in
        match headv with
        | View.Null _ -> assert false
        | View.Ptr { target = hb; _ } ->
          let hn = Block.get hb in
          let nextv = T.read h.th ~slot:slot_next hn.next in
          (* Same head re-validation as dequeue before touching the
             successor. *)
          let fresh =
            match T.read h.th ~slot:slot_tail h.ds.head with
            | View.Ptr { target = hb'; _ } -> hb' == hb
            | View.Null _ -> false
          in
          (match nextv with
           | View.Null _ -> None
           | View.Ptr _ when not fresh -> attempt ()
           | View.Ptr { target = nb; _ } -> Some (Block.get nb).value)
      in
      attempt ())

  let is_empty h = peek h = None

  (* Sequential-context dump, front (next-out) first: the dummy's
     value is dead, everything after it is live. *)
  let to_list t =
    sequential t.tracker (fun th ->
      let rec go acc v =
        match v with
        | View.Null _ -> List.rev acc
        | View.Ptr { target = b; _ } ->
          let n = Block.get b in
          go (n.value :: acc) (T.read th ~slot:slot_next n.next)
      in
      match T.read th ~slot:slot_node t.head with
      | View.Null _ -> []
      | View.Ptr { target = dummy; _ } ->
        go [] (T.read th ~slot:slot_next (Block.get dummy).next))

  (* Quiescent structural check: the chain from [head] is acyclic
     (bounded by the live count), touches no reclaimed block, and
     [tail] points at a node still on the chain. *)
  let check_invariants t =
    sequential t.tracker (fun th ->
      let limit = (allocator_stats t).live + 1 in
      let tailv = T.read th ~slot:slot_tail t.tail in
      let rec go n ~seen_tail b =
        if n > limit then
          failwith "ms-queue invariant: chain longer than live count";
        if Block.is_reclaimed b then
          failwith "ms-queue invariant: reachable reclaimed block";
        let seen_tail =
          seen_tail
          || (match tailv with
              | View.Ptr { target = tb; _ } -> tb == b
              | View.Null _ -> false)
        in
        match T.read th ~slot:slot_next (Block.get b).next with
        | View.Ptr { target = nxt; _ } -> go (n + 1) ~seen_tail nxt
        | View.Null _ ->
          if not seen_tail then
            failwith "ms-queue invariant: tail not reachable from head"
      in
      match T.read th ~slot:slot_node t.head with
      | View.Null _ -> failwith "ms-queue invariant: null head"
      | View.Ptr { target = dummy; _ } -> go 0 ~seen_tail:false dummy)

  let map = None

  let queue =
    Some
      {
        Ds_intf.enqueue;
        dequeue;
        peek;
        order = Ds_intf.Fifo;
        to_seq_list = to_list;
      }

  let range = None
  let bulk = None
end
