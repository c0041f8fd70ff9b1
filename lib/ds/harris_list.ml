(* The ordered lock-free linked list of Harris [14] as refined by
   Michael [20] — the refinement matters here because Michael's
   version is compatible with hazard pointers: instead of Harris'
   batched physical deletion, marked nodes are unlinked one at a time
   during traversal, so a traversal holds at most three protected
   references (prev-node, cur, next).

   Marking: tag bit 1 on a node's [next] pointer marks the node as
   logically deleted.  A node is retired by whichever thread performs
   its physical unlink, after the unlink — satisfying the §4.1 proviso
   (all shared pointers to a block are overwritten before retire).

   The [Raw] operations take an explicit head cell so that Michael's
   hash map can reuse them per bucket. *)

open Ibr_core
open Ds_common

let marked = 1

module Make (T : Tracker_intf.TRACKER) = struct
  let name = "harris-michael-list"
  let compatible (p : Tracker_intf.properties) = p.mutable_pointers
  let slots_needed = 3

  type node = {
    key : int;
    mutable value : int;
    next : node T.ptr;
  }

  type t = {
    tracker : node T.t;
    head : node T.ptr;
  }

  include Lifecycle (T) (struct
      type nonrec node = node and t = t
      let name = name and slots_needed = slots_needed
      let tracker t = t.tracker
    end)

  let create ~threads cfg =
    let tracker = create_tracker ~threads cfg in
    { tracker; head = T.make_ptr tracker None }

  (* Hazard-slot roles during traversal. *)
  let slot_prev = 0   (* node containing the [prev] cell *)
  let slot_cur = 1
  let slot_next = 2

  (* Where [find] stopped: the cell it would link a new node at, the
     view read from that cell, and — when the view targets a node —
     that node's block, payload and next-view.  One value, so a
     search allocates one block. *)
  type position =
    | End of { prev : node T.ptr; curv : node View.t }
    | At of {
        prev : node T.ptr;
        curv : node View.t;
        bcur : node Block.t;
        n : node;
        nextv : node View.t;
      }

  (* cur ([curv], block [bcur]) is logically deleted — its next
     pointer [nextv] is marked — so unlink it from [prev] before
     moving on; [false] when [prev] no longer holds [curv].  The
     helping CAS is idempotent, but the unlink-winner owes the retire
     — mask the pair so a neutralization cannot separate them (an
     unlinked-never-retired node would leak; no dereference happens
     inside). *)
  let unlink th prev curv bcur nextv =
    committed (fun () ->
      if T.cas th prev ~expected:curv (View.target nextv) then begin
        T.retire th bcur;
        true
      end
      else false)

  (* Michael's find: position (prev, cur) such that cur is the first
     node with key >= [key]; unlinks marked nodes encountered on the
     way.  A top-level loop, not a closure per search. *)
  let rec walk th key prev curv =
    (* A marked box read from [prev] means prev's own node was
       logically deleted under us: its next pointer is frozen and
       must never be CASed back to an unmarked value (doing so would
       resurrect a dead path and permit double unlinks).  Restart
       from the head, as Michael's algorithm does. *)
    if View.tag curv = marked then raise Restart;
    match curv with
    | View.Null _ -> End { prev; curv }
    | View.Ptr { target = bcur; _ } ->
      let n = Block.get bcur in
      let nextv = T.read th ~slot:slot_next n.next in
      if View.tag nextv = marked then begin
        if unlink th prev curv bcur nextv then
          walk th key prev (T.read th ~slot:slot_cur prev)
        else raise Restart
      end
      else if n.key >= key then At { prev; curv; bcur; n; nextv }
      else begin
        (* Advance hand over hand: cur's protection becomes prev's,
           next's becomes cur's. *)
        T.reassign th ~src:slot_cur ~dst:slot_prev;
        T.reassign th ~src:slot_next ~dst:slot_cur;
        walk th key n.next nextv
      end

  let find th head key = walk th key head (T.read th ~slot:slot_cur head)

  module Raw = struct
    let insert tracker th head ~key ~value =
      match find th head key with
      | At { n; _ } when n.key = key -> false
      | End { prev; curv } | At { prev; curv; _ } ->
        (* Mask from the allocation through the linearizing install
           CAS (and the loser's dealloc): a restart signal landing
           inside would either leak the fresh block or re-apply a
           successful insert.  No dereference happens inside. *)
        committed (fun () ->
          let b =
            T.alloc th
              { key; value; next = T.make_ptr tracker (View.target curv) }
          in
          if T.cas th prev ~expected:curv (Some b) then true
          else begin
            T.dealloc th b;
            raise Restart
          end)

    let remove _tracker th head ~key =
      match find th head key with
      | At { prev; curv; bcur; n; nextv } when n.key = key ->
        (* Mask from the linearizing mark CAS through the unlink and
           retire tail: once the mark lands the remove has happened,
           and a restart would remove a second key.  No dereference
           happens inside (the tail touches only pointer cells and
           blocks this thread owns-to-retire). *)
        committed (fun () ->
          (* Logical deletion: set the mark on cur's next pointer. *)
          if
            not
              (T.cas th n.next ~expected:nextv ~tag:marked
                 (View.target nextv))
          then raise Restart
          else begin
            (* Physical unlink; if it fails a later traversal helps. *)
            (if T.cas th prev ~expected:curv (View.target nextv) then
               T.retire th bcur);
            true
          end)
      | At _ | End _ -> false

    let get _tracker th head ~key =
      match find th head key with
      | At { n; _ } when n.key = key -> Some n.value
      | At _ | End _ -> None
  end

  let insert h ~key ~value =
    wrap h (fun () -> Raw.insert h.ds.tracker h.th h.ds.head ~key ~value)

  let remove h ~key =
    wrap h (fun () -> Raw.remove h.ds.tracker h.th h.ds.head ~key)

  let get h ~key = wrap h (fun () -> Raw.get h.ds.tracker h.th h.ds.head ~key)

  let contains h ~key = get h ~key <> None

  (* Bounded ordered scan: one hand-over-hand traversal from the head,
     collecting keys in [lo, hi] and stopping at the first key past
     [hi].  The whole scan runs inside one operation bracket, so the
     reservation spans the full traversal — the long reader interval
     the RANGE capability exists to stress.  Like [walk], it never
     follows a marked pointer: a deleted node's next is frozen, and
     its target may have been unlinked, retired and freed since —
     re-reading the frozen cell cannot tell — so the scan unlinks the
     deleted node and goes on from [prev] instead.  The result is
     built in order, so the entries are all a scan allocates. *)
  let[@tail_mod_cons] rec collect th ~lo ~hi prev curv =
    if View.tag curv = marked then raise Restart;
    match curv with
    | View.Null _ -> []
    | View.Ptr { target = b; _ } ->
      let n = Block.get b in
      if n.key > hi then []
      else begin
        let nextv = T.read th ~slot:slot_next n.next in
        if View.tag nextv = marked then begin
          if unlink th prev curv b nextv then
            collect th ~lo ~hi prev (T.read th ~slot:slot_cur prev)
          else raise Restart
        end
        else begin
          let value = n.value in
          T.reassign th ~src:slot_cur ~dst:slot_prev;
          T.reassign th ~src:slot_next ~dst:slot_cur;
          if n.key >= lo then (n.key, value) :: collect th ~lo ~hi n.next nextv
          else collect th ~lo ~hi n.next nextv
        end
      end

  let range_scan h ~lo ~hi =
    wrap h (fun () ->
      let head = h.ds.head in
      collect h.th ~lo ~hi head (T.read h.th ~slot:slot_cur head))

  (* For rigs (robustness demo) that stage a stalled or crashed reader
     by driving the tracker handle around the [with_op] bracket. *)
  let tracker_handle h = h.th
  let head t = t.head

  (* Sequential-context walk over a single chain; shared with the
     hash map's per-bucket dumps. *)
  let dump_chain tracker head =
    sequential tracker (fun th ->
      let rec walk acc v =
        match v with
        | View.Null _ -> List.rev acc
        | View.Ptr { target = b; _ } ->
          let n = Block.get b in
          let nextv = T.read th ~slot:slot_next n.next in
          let acc =
            if View.tag nextv = marked then acc
            else (n.key, n.value) :: acc
          in
          walk acc nextv
      in
      walk [] (T.read th ~slot:slot_cur head))

  let check_chain tracker head =
    sequential tracker (fun th ->
      let rec walk last v =
        match v with
        | View.Null _ -> ()
        | View.Ptr { target = b; _ } ->
          if Block.is_reclaimed b then
            failwith "harris-list invariant: reachable reclaimed block";
          let n = Block.get b in
          if n.key <= last then
            failwith "harris-list invariant: keys not strictly increasing";
          walk n.key (T.read th ~slot:slot_next n.next)
      in
      walk min_int (T.read th ~slot:slot_cur head))

  let to_sorted_list t = dump_chain t.tracker t.head
  let check_invariants t = check_chain t.tracker t.head

  let map =
    Some { Ds_intf.insert; remove; get; contains; to_sorted_list }

  let queue = None
  let range = Some { Ds_intf.range = range_scan }
  let bulk = None
end
