(* The lock-free external binary search tree of Natarajan & Mittal
   [23], the paper's third rideable.

   Shape: internal nodes route (key k: strictly-less goes left,
   greater-or-equal goes right); leaves carry the key-value pairs.
   Three sentinel leaves and two sentinel internals (R above S) frame
   the tree, using two infinity keys.

   Edge bits (view tags on child pointers):
   - FLAG (bit 0): set on the edge parent->leaf by a delete's
     *injection* step; promises the leaf will be removed.
   - TAG (bit 1): set on the parent's *other* edge by the cleanup
     step; freezes it so the sibling subtree can be spliced up.

   A delete first flags, then *cleanup* tags the sibling edge and
   CASes the ancestor's edge from the successor to the sibling
   subtree, physically removing parent and leaf at once.  Inserts
   blocked by a flagged/tagged edge help the cleanup along.

   Reclamation-safety refinement: after a successful splice we
   overwrite BOTH outgoing edges of the removed parent (null target,
   both bits set) *before* retiring the parent and leaf.  Without
   this, a reader paused inside a dead parent could later follow one
   of its frozen edges to a block retired after the parent's removal —
   the exact scenario §4.1's proviso outlaws.  (EBR happens to forgive
   it, because its one-sided reservation covers everything retired
   after the reader's start; robust interval reservations do not —
   which makes this tree an instructive stress for IBR.)  Readers
   treat a null edge as "node is dead" and restart.  When concurrent
   deletes chain (successor ≠ parent), the whole chain is leaked
   rather than retired — its nodes stay allocated with intact edges,
   so parked readers remain safe; this is rare and bounded (the
   paper's artifact likewise declines to reclaim chains). *)

open Ibr_core
open Ds_common

let flag_bit = 1
let tag_bit = 2

(* Sentinel keys: every user key must be < inf1 < inf2. *)
let inf1 = max_int - 1
let inf2 = max_int

module Make (T : Tracker_intf.TRACKER) = struct
  let name = "natarajan-mittal-tree"
  let compatible (p : Tracker_intf.properties) = p.mutable_pointers
  let slots_needed = 4

  type node =
    | Leaf of leaf
    | Internal of internal
  and leaf = { key : int; mutable value : int }
  and internal = { ikey : int; left : node T.ptr; right : node T.ptr }

  type t = {
    tracker : node T.t;
    root : node Block.t;        (* R; never retired *)
  }

  include Lifecycle (T) (struct
      type nonrec node = node and t = t
      let name = name and slots_needed = slots_needed
      let tracker t = t.tracker
    end)

  let create ~threads cfg =
    let tracker = create_tracker ~threads cfg in
    let h0 = T.register tracker ~tid:0 in
    let leaf k = T.alloc h0 (Leaf { key = k; value = 0 }) in
    let s =
      T.alloc h0
        (Internal {
           ikey = inf1;
           left = T.make_ptr tracker (Some (leaf inf1));
           right = T.make_ptr tracker (Some (leaf inf2));
         })
    in
    let r =
      T.alloc h0
        (Internal {
           ikey = inf2;
           left = T.make_ptr tracker (Some s);
           right = T.make_ptr tracker (Some (leaf inf2));
         })
    in
    { tracker; root = r }

  (* Hazard-slot roles. *)
  let slot_anc = 0
  let slot_parent = 1
  let slot_cur = 2
  let slot_scratch = 3

  type seek_record = {
    sr_ancestor : node Block.t;      (* internal; anc_edge lives in it *)
    sr_anc_edge : node T.ptr;        (* ancestor's child cell on the path *)
    sr_succ_view : node View.t;      (* view of anc_edge read at seek *)
    sr_parent : node Block.t;        (* the terminal leaf's parent *)
    sr_leaf_edge : node T.ptr;       (* parent's child cell to the leaf *)
    sr_leaf_view : node View.t;      (* view of leaf_edge (carries FLAG) *)
    sr_leaf : node Block.t;
  }

  (* Descend from R, maintaining (ancestor, successor-edge) as the
     deepest *untagged* edge above (parent, leaf).  A top-level loop,
     so a seek allocates only the record it returns. *)
  let rec descend th key ~ancestor ~anc_edge ~succ_view ~parent ~leaf_edge
      ~leaf_view =
    match leaf_view with
    | View.Null _ ->
      (* Dead parent (edges nulled after a splice): retry. *)
      raise Restart
    | View.Ptr { target = b; _ } ->
      (match Block.get b with
       | Leaf _ ->
         { sr_ancestor = ancestor; sr_anc_edge = anc_edge;
           sr_succ_view = succ_view; sr_parent = parent;
           sr_leaf_edge = leaf_edge; sr_leaf_view = leaf_view;
           sr_leaf = b }
       | Internal inode ->
         let ancestor, anc_edge, succ_view =
           if View.tag leaf_view land tag_bit = 0 then begin
             (* Edge into this internal node is untagged: it becomes
                the new (ancestor, successor). *)
             T.reassign th ~src:slot_parent ~dst:slot_anc;
             (parent, leaf_edge, leaf_view)
           end
           else (ancestor, anc_edge, succ_view)
         in
         T.reassign th ~src:slot_cur ~dst:slot_parent;
         let leaf_edge' =
           if key < inode.ikey then inode.left else inode.right in
         let leaf_view' = T.read th ~slot:slot_cur leaf_edge' in
         descend th key ~ancestor ~anc_edge ~succ_view ~parent:b
           ~leaf_edge:leaf_edge' ~leaf_view:leaf_view')

  let seek h key =
    let th = h.th in
    let root_node = Block.get h.ds.root in
    let root_edge =
      match root_node with
      | Internal i -> i.left   (* all keys < inf2 route left at R *)
      | Leaf _ -> assert false
    in
    let first_view = T.read th ~slot:slot_cur root_edge in
    descend th key ~ancestor:h.ds.root ~anc_edge:root_edge
      ~succ_view:first_view ~parent:h.ds.root ~leaf_edge:root_edge
      ~leaf_view:first_view

  (* Cleanup (Algorithm 4): tag the sibling edge, splice the sibling
     subtree into the ancestor, retire the removed parent and leaf.
     Returns true iff this call performed the splice. *)
  let cleanup h key sr =
    let th = h.th in
    let pnode =
      match Block.get sr.sr_parent with
      | Internal i -> i
      | Leaf _ -> raise Restart
    in
    (* Identify the flagged edge: normally the key's side, but when
       helping a delete of the *other* child it is the other side. *)
    let primary, secondary =
      if key < pnode.ikey then (pnode.left, pnode.right)
      else (pnode.right, pnode.left)
    in
    let pv = T.read th ~slot:slot_scratch primary in
    if View.is_null pv then raise Restart;
    let child_edge, cv, sibling_edge =
      if View.tag pv land flag_bit <> 0 then (primary, pv, secondary)
      else begin
        let sv0 = T.read th ~slot:slot_scratch secondary in
        if View.is_null sv0 then raise Restart
        else if View.tag sv0 land flag_bit <> 0 then (secondary, sv0, primary)
        else
          (* No flag in sight: the removal we meant to help already
             finished (or never started here) — re-seek. *)
          raise Restart
      end
    in
    (* Freeze the sibling edge (preserving any pending FLAG on it). *)
    let rec tag_sibling () =
      let sv = T.read th ~slot:slot_scratch sibling_edge in
      if View.is_null sv then raise Restart
      else if View.tag sv land tag_bit <> 0 then sv
      else if
        T.cas th sibling_edge ~expected:sv
          ~tag:(View.tag sv lor tag_bit) (View.target sv)
      then T.read th ~slot:slot_scratch sibling_edge
      else tag_sibling ()
    in
    let sv = tag_sibling () in
    if View.is_null sv then raise Restart;
    (* Splice: ancestor's edge moves from the successor to the sibling
       subtree; a pending FLAG on the sibling edge survives the move. *)
    let promoted_tag = View.tag sv land flag_bit in
    (* Mask the splice CAS together with its edge-overwrite and retire
       tail: a restart signal between them would leave the dead parent
       with live frozen edges and nothing retired.  No dereference
       happens inside (only pointer cells and physical compares). *)
    committed (fun () ->
      if
        T.cas th sr.sr_anc_edge ~expected:sr.sr_succ_view ~tag:promoted_tag
          (View.target sv)
      then begin
        (* Physically removed.  Simple (and overwhelmingly common) case:
           the successor *is* the parent — retire parent and leaf, after
           overwriting the dead parent's edge to the leaf (proviso). *)
        (if
           match sr.sr_succ_view with
           | View.Ptr { target = b; _ } -> b == sr.sr_parent
           | View.Null _ -> false
         then begin
           (* Overwrite *both* outgoing edges of the dead parent before
              retiring anything.  The child edge must go so the removed
              leaf has no incoming pointers; the sibling edge must go
              because it otherwise remains a frozen stale path into the
              live tree — a reader parked inside the dead parent could
              follow it much later to a node that has since been retired
              (the transitive violation of §4.1's proviso that interval
              reservations, unlike EBR's one-sided ones, do not
              forgive).  Readers treat a null edge as "node is dead" and
              restart. *)
           T.write th child_edge ~tag:(flag_bit lor tag_bit) None;
           T.write th sibling_edge ~tag:(flag_bit lor tag_bit) None;
           (match cv with
            | View.Ptr { target = leaf_b; _ } -> T.retire th leaf_b
            | View.Null _ -> ());
           T.retire th sr.sr_parent
         end);
        true
      end
      else false)

  let leaf_key sr =
    match Block.get sr.sr_leaf with
    | Leaf l -> l.key
    | Internal _ -> raise Restart

  let insert h ~key ~value =
    if key >= inf1 then invalid_arg "Nm_tree.insert: key too large";
    wrap h (fun () ->
      let sr = seek h key in
      let lk = leaf_key sr in
      if lk = key then false
      else if View.tag sr.sr_leaf_view <> 0 then begin
        (* Edge under deletion: help, then retry. *)
        ignore (cleanup h key sr);
        raise Restart
      end
      else
        (* Mask allocation through the linearizing install CAS (and
           the loser's deallocs): a restart signal inside would leak
           the fresh blocks or re-apply a landed insert.  No
           dereference happens inside ([lk] was read above). *)
        committed (fun () ->
          let new_leaf = T.alloc h.th (Leaf { key; value }) in
          let left, right =
            if key < lk then (new_leaf, sr.sr_leaf)
            else (sr.sr_leaf, new_leaf)
          in
          let new_internal =
            T.alloc h.th
              (Internal {
                 ikey = max key lk;
                 left = T.make_ptr h.ds.tracker (Some left);
                 right = T.make_ptr h.ds.tracker (Some right);
               })
          in
          if T.cas h.th sr.sr_leaf_edge ~expected:sr.sr_leaf_view
              (Some new_internal)
          then true
          else begin
            T.dealloc h.th new_internal;
            T.dealloc h.th new_leaf;
            raise Restart
          end))

  let remove h ~key =
    if key >= inf1 then invalid_arg "Nm_tree.remove: key too large";
    (* Injection-then-cleanup state persists across restarts. *)
    let injected = ref None in
    wrap h (fun () ->
      let sr = seek h key in
      match !injected with
      | None ->
        if leaf_key sr <> key then false
        else if View.tag sr.sr_leaf_view <> 0 then begin
          (* Another operation owns this edge: help it, then re-seek.
             If it is a concurrent delete of the same key, the re-seek
             will no longer find the key and we return false. *)
          ignore (cleanup h key sr);
          raise Restart
        end
        else if
          (* Injection is the delete's linearization point: mask it
             together with recording ownership, else a restart signal
             between the CAS and the assignment would make the retry
             treat our own flag as a foreign delete and answer
             [false] for a removal that happened. *)
          committed (fun () ->
            if
              T.cas h.th sr.sr_leaf_edge ~expected:sr.sr_leaf_view
                ~tag:flag_bit (Some sr.sr_leaf)
            then begin
              injected := Some sr.sr_leaf;
              true
            end
            else false)
        then begin
          if cleanup h key sr then true else raise Restart
        end
        else raise Restart
      | Some our_leaf ->
        (* We own the flag; finish the cleanup unless someone did. *)
        if sr.sr_leaf != our_leaf then true
        else if cleanup h key sr then true
        else raise Restart)

  let get h ~key =
    if key >= inf1 then None
    else
      wrap h (fun () ->
        let sr = seek h key in
        match Block.get sr.sr_leaf with
        | Leaf l when l.key = key -> Some l.value
        | Leaf _ | Internal _ -> None)

  let contains h ~key = get h ~key <> None

  (* Bounded ordered scan by repeated ceiling descent, all inside one
     operation bracket (the reservation spans the whole scan — the
     long reader interval the RANGE capability exists to stress).

     Ceiling(k): route for [k] from R, recording in [bound] the ikey
     of the last internal where the search went left — that ikey is
     the least upper bound of the skipped right subtrees, i.e. the
     next slot to probe when the landed leaf's key falls short of
     [k].  The recursion terminates because the recorded bound is
     strictly greater than [k], and the sentinel frame guarantees a
     landing leaf (inf1/inf2) for every probe.  Both loops are
     top-level and the result is built in order, so the entries are
     all a scan allocates (DESIGN.md §1a). *)
  let rec ceiling th root k b bound =
    match Block.get b with
    | Leaf l -> if l.key >= k then l else ceiling th root bound root max_int
    | Internal i ->
      let left = k < i.ikey in
      T.reassign th ~src:slot_cur ~dst:slot_parent;
      (match T.read th ~slot:slot_cur (if left then i.left else i.right) with
       | View.Null _ -> raise Restart (* dead node: retry *)
       | View.Ptr { target = c; _ } ->
         ceiling th root k c (if left then i.ikey else bound))

  let[@tail_mod_cons] rec collect th root ~hi k =
    if k > hi then []
    else
      let l = ceiling th root k root max_int in
      if l.key > hi || l.key >= inf1 then []
      else
        let entry = (l.key, l.value) in
        entry :: collect th root ~hi (l.key + 1)

  let range_scan h ~lo ~hi =
    if lo >= inf1 then []
    else wrap h (fun () -> collect h.th h.ds.root ~hi lo)

  (* Sequential-context traversal (quiescent tree). *)
  let fold_leaves t f init =
    sequential t.tracker (fun th ->
      let rec go acc b =
        match Block.get b with
        | Leaf l -> if l.key < inf1 then f acc l.key l.value else acc
        | Internal i ->
          let child acc edge =
            match T.read th ~slot:slot_cur edge with
            | View.Null _ -> acc
            | View.Ptr { target; _ } -> go acc target
          in
          child (child acc i.left) i.right
      in
      go init t.root)

  let to_sorted_list t =
    fold_leaves t (fun acc k v -> (k, v) :: acc) []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  (* Invariants at quiescence:
     - no reachable reclaimed block, no reachable dead (nulled) edge;
     - routing bounds hold: left subtree keys <= m, right >= m
       (inclusive on both sides — the sentinel layout places an
       equal-keyed terminator leaf as the rightmost leaf of a left
       subtree, so strict bounds would be wrong);
     - no duplicate real keys;
     - every real key is actually reachable by routing search. *)
  let check_invariants t =
    sequential t.tracker (fun th ->
      let keys = ref [] in
      let rec go ~lo ~hi b =
        if Block.is_reclaimed b then
          failwith "nm-tree invariant: reachable reclaimed block";
        match Block.get b with
        | Leaf l ->
          if not (lo <= l.key && l.key <= hi) then
            failwith "nm-tree invariant: leaf key out of range";
          if l.key < inf1 then keys := l.key :: !keys
        | Internal i ->
          if not (lo <= i.ikey && i.ikey <= hi) then
            failwith "nm-tree invariant: internal key out of range";
          let child edge = match T.read th ~slot:slot_cur edge with
            | View.Null _ -> failwith "nm-tree invariant: reachable dead edge"
            | View.Ptr { target; _ } -> target
          in
          go ~lo ~hi:i.ikey (child i.left);
          go ~lo:i.ikey ~hi (child i.right)
      in
      go ~lo:min_int ~hi:max_int t.root;
      let sorted = List.sort compare !keys in
      let rec dup = function
        | a :: (b :: _ as rest) -> a = b || dup rest
        | [_] | [] -> false
      in
      if dup sorted then failwith "nm-tree invariant: duplicate key";
      (* Routing search must find every key the traversal saw. *)
      let rec search b key =
        match Block.get b with
        | Leaf l -> l.key = key
        | Internal i ->
          let edge = if key < i.ikey then i.left else i.right in
          (match T.read th ~slot:slot_cur edge with
           | View.Null _ -> false
           | View.Ptr { target = c; _ } -> search c key)
      in
      List.iter (fun k ->
        if not (search t.root k) then
          failwith "nm-tree invariant: key unreachable by routing search")
        sorted)

  let map =
    Some { Ds_intf.insert; remove; get; contains; to_sorted_list }

  let queue = None
  let range = Some { Ds_intf.range = range_scan }
  let bulk = None
end
