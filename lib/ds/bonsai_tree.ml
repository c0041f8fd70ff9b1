(* A lock-free variant of the Bonsai tree [6]: a *persistent*
   weight-balanced binary search tree under a single mutable root
   pointer, the paper's fourth rideable (Fig. 8d/9d).

   Persistence discipline (§3.1): every pointer except the root is
   immutable — an update builds a new path (plus rebalancing copies)
   that shares everything else with the old version, then CASes the
   root.  On success the superseded nodes are retired; on failure the
   speculative nodes are deallocated unpublished.  This is exactly the
   structure POIBR exploits: one guarded root read covers everything
   reachable.

   Balancing is Adams' weight-balanced scheme (the one in Haskell's
   Data.Map): subtree sizes are stored in nodes; a node is rebuilt
   with single/double rotations when one side outweighs the other by
   more than [delta].

   HP and HE are excluded, as in the paper: a lookup or rebuild
   traverses an unbounded number of nodes, which per-pointer schemes
   cannot cover with a fixed slot budget. *)

open Ibr_core
open Ds_common

let delta = 3    (* imbalance trigger *)
let ratio = 2    (* single vs. double rotation *)

module Make (T : Tracker_intf.TRACKER) = struct
  let name = "bonsai-tree"
  let compatible (p : Tracker_intf.properties) = not p.bounded_slots
  let slots_needed = 1

  type node = {
    key : int;
    value : int;
    size : int;                (* nodes in this subtree, self included *)
    left : node T.ptr;         (* immutable after construction *)
    right : node T.ptr;
  }

  type t = {
    tracker : node T.t;
    root : node T.ptr;         (* the only mutable pointer *)
  }

  include Lifecycle (T) (struct
      type nonrec node = node and t = t
      let name = name and slots_needed = slots_needed
      let tracker t = t.tracker
    end)

  let create ~threads cfg =
    let tracker = create_tracker ~threads cfg in
    { tracker; root = T.make_ptr tracker None }

  (* Per-operation rewrite context: which blocks were allocated by
     this attempt, which existing blocks it supersedes, and which of
     its own allocations it consumed while rebalancing. *)
  type ctx = {
    mutable created : node Block.t list;
    mutable replaced : node Block.t list;
    mutable discarded : node Block.t list;
  }

  let size_of = function
    | None -> 0
    | Some b -> (Block.get b).size

  (* Read-only walks match the child's view directly; the copy-on-write
     rewrite works on options, which it also builds new nodes from. *)
  let child_view th edge = T.read th ~slot:0 edge
  let child h edge = View.target (child_view h.th edge)

  (* Consume [b] during a rotation: a node of ours is discarded, an
     original is superseded. *)
  let consume ctx b =
    if List.memq b ctx.created then ctx.discarded <- b :: ctx.discarded
    else ctx.replaced <- b :: ctx.replaced

  let mk h ctx ~left ~key ~value ~right =
    let size = 1 + size_of left + size_of right in
    let b =
      T.alloc h.th
        { key; value; size;
          left = T.make_ptr h.ds.tracker left;
          right = T.make_ptr h.ds.tracker right }
    in
    ctx.created <- b :: ctx.created;
    b

  (* Rebuild a node from parts, restoring the weight invariant.  The
     shapes follow Adams: rotate toward the light side; double-rotate
     when the inner grandchild is the heavy one. *)
  let balance h ctx ~left ~key ~value ~right =
    let ls = size_of left and rs = size_of right in
    if ls + rs <= 1 then mk h ctx ~left ~key ~value ~right
    else if rs > delta * ls then begin
      let rb = Option.get right in
      let rn = Block.get rb in
      let rl = child h rn.left and rr = child h rn.right in
      consume ctx rb;
      if size_of rl < ratio * size_of rr then
        (* single left rotation *)
        let inner = mk h ctx ~left ~key ~value ~right:rl in
        mk h ctx ~left:(Some inner) ~key:rn.key ~value:rn.value ~right:rr
      else begin
        (* double left rotation through rl *)
        let rlb = Option.get rl in
        let rln = Block.get rlb in
        let rll = child h rln.left and rlr = child h rln.right in
        consume ctx rlb;
        let a = mk h ctx ~left ~key ~value ~right:rll in
        let b = mk h ctx ~left:rlr ~key:rn.key ~value:rn.value ~right:rr in
        mk h ctx ~left:(Some a) ~key:rln.key ~value:rln.value ~right:(Some b)
      end
    end
    else if ls > delta * rs then begin
      let lb = Option.get left in
      let ln = Block.get lb in
      let ll = child h ln.left and lr = child h ln.right in
      consume ctx lb;
      if size_of lr < ratio * size_of ll then
        let inner = mk h ctx ~left:lr ~key ~value ~right in
        mk h ctx ~left:ll ~key:ln.key ~value:ln.value ~right:(Some inner)
      else begin
        let lrb = Option.get lr in
        let lrn = Block.get lrb in
        let lrl = child h lrn.left and lrr = child h lrn.right in
        consume ctx lrb;
        let a = mk h ctx ~left:ll ~key:ln.key ~value:ln.value ~right:lrl in
        let b = mk h ctx ~left:lrr ~key ~value ~right in
        mk h ctx ~left:(Some a) ~key:lrn.key ~value:lrn.value ~right:(Some b)
      end
    end
    else mk h ctx ~left ~key ~value ~right

  exception Unchanged
  (* The operation is a no-op (insert of a present key / remove of an
     absent one); raised before anything is allocated. *)

  let rec insert_at h ctx key value = function
    | None -> mk h ctx ~left:None ~key ~value ~right:None
    | Some b ->
      let n = Block.get b in
      if key = n.key then raise Unchanged
      else begin
        consume ctx b;
        if key < n.key then
          let l' = insert_at h ctx key value (child h n.left) in
          balance h ctx ~left:(Some l') ~key:n.key ~value:n.value
            ~right:(child h n.right)
        else
          let r' = insert_at h ctx key value (child h n.right) in
          balance h ctx ~left:(child h n.left) ~key:n.key ~value:n.value
            ~right:(Some r')
      end

  (* Remove and return the minimum of a non-empty subtree. *)
  let rec take_min h ctx b =
    let n = Block.get b in
    consume ctx b;
    match child h n.left with
    | None -> ((n.key, n.value), child h n.right)
    | Some lb ->
      let (kv, l') = take_min h ctx lb in
      (kv, Some (balance h ctx ~left:l' ~key:n.key ~value:n.value
                   ~right:(child h n.right)))

  let rec remove_at h ctx key = function
    | None -> raise Unchanged
    | Some b ->
      let n = Block.get b in
      if key = n.key then begin
        consume ctx b;
        match child h n.left, child h n.right with
        | None, r -> r
        | l, None -> l
        | l, Some rb ->
          let ((k, v), r') = take_min h ctx rb in
          Some (balance h ctx ~left:l ~key:k ~value:v ~right:r')
      end
      else begin
        consume ctx b;
        if key < n.key then
          let l' = remove_at h ctx key (child h n.left) in
          Some (balance h ctx ~left:l' ~key:n.key ~value:n.value
                  ~right:(child h n.right))
        else
          let r' = remove_at h ctx key (child h n.right) in
          Some (balance h ctx ~left:(child h n.left) ~key:n.key
                  ~value:n.value ~right:r')
      end

  (* Run one copy-and-swing-root update. *)
  let update h rewrite =
    let ctx = { created = []; replaced = []; discarded = [] } in
    let rootv = T.read_root h.th h.ds.root in
    match rewrite ctx (View.target rootv) with
    | exception Unchanged -> false
    | exception Fault.Neutralized ->
      (* The rewrite traverses the shared version, so it cannot be
         masked; instead free the speculative (still-private) nodes
         before the attempt unwinds.  Masked, so a second signal
         cannot land mid-cleanup; touches only blocks we own. *)
      committed (fun () ->
        List.iter (fun b -> T.dealloc h.th b) ctx.created);
      raise Fault.Neutralized
    | new_root ->
      (* Mask the linearizing root swing together with its tail: a
         restart after the CAS would re-apply the update, and a signal
         between the CAS and the retires would leak the superseded
         version.  No dereference happens inside. *)
      committed (fun () ->
        if T.cas h.th h.ds.root ~expected:rootv new_root then begin
          List.iter (fun b -> T.retire h.th b) ctx.replaced;
          List.iter (fun b -> T.dealloc h.th b) ctx.discarded;
          true
        end
        else begin
          List.iter (fun b -> T.dealloc h.th b) ctx.created;
          raise Restart
        end)

  let insert h ~key ~value =
    wrap h (fun () ->
      update h (fun ctx root ->
        Some (insert_at h ctx key value root)))

  let remove h ~key =
    wrap h (fun () -> update h (fun ctx root -> remove_at h ctx key root))

  let get h ~key =
    wrap h (fun () ->
      let rec go = function
        | View.Null _ -> None
        | View.Ptr { target = b; _ } ->
          let n = Block.get b in
          if key = n.key then Some n.value
          else if key < n.key then go (child_view h.th n.left)
          else go (child_view h.th n.right)
      in
      go (T.read_root h.th h.ds.root))

  let contains h ~key = get h ~key <> None

  (* Bounded ordered scan: one guarded root read pins the whole
     version (persistence — everything reachable is immutable), then a
     pure pruned in-order descent collects [lo, hi].  The reservation
     spans the whole scan, and under POIBR the single root read is all
     the protection the traversal needs. *)
  let range_scan h ~lo ~hi =
    wrap h (fun () ->
      let rec go acc = function
        | View.Null _ -> acc
        | View.Ptr { target = b; _ } ->
          let n = Block.get b in
          let acc =
            if n.key < hi then go acc (child_view h.th n.right) else acc in
          let acc =
            if lo <= n.key && n.key <= hi then (n.key, n.value) :: acc
            else acc
          in
          if n.key > lo then go acc (child_view h.th n.left) else acc
      in
      go [] (T.read_root h.th h.ds.root))

  let to_sorted_list t =
    sequential t.tracker (fun th ->
      (* Right-to-left in-order with an accumulator yields ascending
         key order directly. *)
      let rec go acc = function
        | View.Null _ -> acc
        | View.Ptr { target = b; _ } ->
          let n = Block.get b in
          let acc = go acc (child_view th n.right) in
          go ((n.key, n.value) :: acc) (child_view th n.left)
      in
      go [] (T.read_root th t.root))

  (* BST order, size bookkeeping, weight balance, and liveness of the
     whole reachable version. *)
  let check_invariants t =
    sequential t.tracker (fun th ->
      let rec go ~lo ~hi = function
        | View.Null _ -> 0
        | View.Ptr { target = b; _ } ->
          if Block.is_reclaimed b then
            failwith "bonsai invariant: reachable reclaimed block";
          let n = Block.get b in
          if not (lo < n.key && n.key < hi) then
            failwith "bonsai invariant: keys out of order";
          let ls = go ~lo ~hi:n.key (child_view th n.left) in
          let rs = go ~lo:n.key ~hi (child_view th n.right) in
          if n.size <> ls + rs + 1 then
            failwith "bonsai invariant: size field wrong";
          if ls + rs > 1 && (ls > delta * rs || rs > delta * ls) then
            failwith "bonsai invariant: weight balance violated";
          n.size
      in
      ignore (go ~lo:min_int ~hi:max_int (T.read_root th t.root)))

  let map =
    Some { Ds_intf.insert; remove; get; contains; to_sorted_list }

  let queue = None
  let range = Some { Ds_intf.range = range_scan }
  let bulk = None
end
