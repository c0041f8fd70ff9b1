(* A resizable lock-free hash map in the split-ordered style of Shalev
   & Shavit: one globally sorted lock-free list (recursive-split key
   order), with a bucket array of shortcut pointers into it.  Growing
   the table never moves a node — doubling just publishes a bigger
   shortcut array whose new cells are initialized lazily.

   What this rideable exists to stress: the bucket array itself lives
   in a tracker [Block.t] (the [Table] payload below), and a migration
   retires the *whole superseded array* through the tracker as one
   block — the BULK capability.  Readers traverse the table they
   protected at operation start, so a migration racing a reader is
   exactly the wholesale-retirement scenario the [bucket_migrate]
   model-check scenario certifies.

   Split ordering in brief: the list is sorted by [so_key], the 31-bit
   reversal of the hash.  Regular nodes set the low bit after the
   reversal (odd [so_key]); bucket [b]'s sentinel dummy is the plain
   reversal of [b] (even).  All keys hashing to bucket [b] under a
   [2^lg] table sort between dummy [b] and the next dummy, so a bucket
   operation walks from its dummy regardless of table size — which is
   why doubling needs no rehash.  Dummies are immortal (never marked,
   never retired); the marked-bit deletion protocol below is
   Harris–Michael, identical to {!Harris_list}. *)

open Ibr_core
open Ds_common

let marked = 1

(* Reverse the low 31 bits (the split-order key space).  Keys must be
   non-negative and below [2^30] so the reversal's low bit is free for
   the regular/dummy parity. *)
let rev31 x =
  let r = ref 0 and x = ref x in
  for _ = 0 to 30 do
    r := (!r lsl 1) lor (!x land 1);
    x := !x lsr 1
  done;
  !r

let max_key = 1 lsl 30

module Make (T : Tracker_intf.TRACKER) = struct
  let name = "resizable-hashmap"
  let compatible (p : Tracker_intf.properties) = p.mutable_pointers
  let slots_needed = 4

  (* One tracker serves both payload shapes: list nodes and the
     bucket-array table.  (Reusing {!Harris_list.Raw} is impossible
     here — its tracker is typed over list nodes only, leaving no
     same-tracker payload for the table block.) *)
  type nrec = {
    so_key : int;               (* split-order position *)
    key : int;                  (* original key (bucket index for dummies) *)
    mutable value : int;
    next : data T.ptr;
  }

  and trec = {
    lg : int;                   (* table size = 2^lg *)
    buckets : data T.ptr array; (* shortcut cells; shared across growths *)
  }

  and data = Node of nrec | Table of trec

  type t = {
    tracker : data T.t;
    table : data T.ptr;         (* the current Table block *)
    count : int Atomic.t;       (* regular-node population (resize trigger) *)
    max_lg : int;
  }

  include Lifecycle (T) (struct
      type nonrec node = data and t = t
      let name = name and slots_needed = slots_needed
      let tracker t = t.tracker
    end)

  (* Hazard-slot roles.  The table slot is held across the whole
     operation; the other three are the Harris–Michael walk. *)
  let slot_table = 0
  let slot_prev = 1
  let slot_cur = 2
  let slot_next = 3

  let default_lg = 6
  let default_max_lg = 18
  let load_factor = 4           (* grow when count > load_factor * size *)

  let create_sized ?(lg = default_lg) ?(max_lg = default_max_lg) ~threads cfg
    =
    if lg < 1 || lg > max_lg then
      invalid_arg "Resizable_hashmap.create: need 1 <= lg <= max_lg";
    let tracker = create_tracker ~threads cfg in
    let h0 = T.register tracker ~tid:0 in
    (* Bucket 0's dummy anchors the whole list; every other bucket
       initializes lazily by splitting off its parent. *)
    let d0 =
      T.alloc h0
        (Node { so_key = 0; key = 0; value = 0;
                next = T.make_ptr tracker None })
    in
    let buckets =
      Array.init (1 lsl lg) (fun i ->
        T.make_ptr tracker (if i = 0 then Some d0 else None))
    in
    let tb = T.alloc h0 (Table { lg; buckets }) in
    {
      tracker;
      table = T.make_ptr tracker (Some tb);
      count = Atomic.make 0;
      max_lg;
    }

  let create ~threads cfg = create_sized ~threads cfg

  let node_of b =
    match Block.get b with
    | Node n -> n
    | Table _ -> assert false   (* tables are never linked into the list *)

  (* Harris–Michael find over split-order keys, starting from a bucket
     cell: position (prev, cur) with cur the first node whose [so_key]
     is >= the target; unlink marked nodes on the way. *)
  let find th start so_key =
    let rec walk prev curv =
      if View.tag curv = marked then raise Restart;
      match curv with
      | View.Null _ -> (prev, curv, None)
      | View.Ptr { target = bcur; _ } ->
        let n = node_of bcur in
        let nextv = T.read th ~slot:slot_next n.next in
        if View.tag nextv = marked then begin
          (* cur is logically deleted: unlink before moving on; the
             unlink-winner owes the retire (masked as one unit, no
             dereference inside). *)
          if
            committed (fun () ->
              if T.cas th prev ~expected:curv (View.target nextv) then begin
                T.retire th bcur;
                true
              end
              else false)
          then walk prev (T.read th ~slot:slot_cur prev)
          else raise Restart
        end
        else if n.so_key >= so_key then (prev, curv, Some (bcur, n, nextv))
        else begin
          T.reassign th ~src:slot_cur ~dst:slot_prev;
          T.reassign th ~src:slot_next ~dst:slot_cur;
          walk n.next nextv
        end
    in
    walk start (T.read th ~slot:slot_cur start)

  (* Insert-or-find a dummy for split-order position [so]: used only
     by lazy bucket initialization, so an existing node at [so] (a
     racing initializer won) is a success. *)
  let insert_dummy h start ~so ~idx =
    let rec attempt () =
      let prev, curv, found = find h.th start so in
      match found with
      | Some (b, n, _) when n.so_key = so -> b
      | Some _ | None ->
        (match
           committed (fun () ->
             let b =
               T.alloc h.th
                 (Node { so_key = so; key = idx; value = 0;
                         next = T.make_ptr h.ds.tracker (View.target curv) })
             in
             if T.cas h.th prev ~expected:curv (Some b) then Some b
             else begin
               T.dealloc h.th b;
               None
             end)
         with
         | Some b -> b
         | None -> attempt ())
    in
    attempt ()

  (* Index of the parent bucket: clear the highest set bit. *)
  let parent_of idx =
    let p = ref 1 in
    while !p lsl 1 <= idx do p := !p lsl 1 done;
    idx - !p

  (* Make sure bucket [idx]'s shortcut cell points at its dummy,
     splitting recursively off the parent bucket.  The recursion depth
     is at most [lg] (one level per set bit). *)
  let rec ensure_bucket h (tr : trec) idx =
    let cell = tr.buckets.(idx) in
    let v = T.read h.th ~slot:slot_prev cell in
    match v with
    | View.Ptr { target = b; _ } -> b
    | View.Null _ ->
      let pidx = parent_of idx in
      let pd = ensure_bucket h tr pidx in
      ignore pd;
      let d = insert_dummy h tr.buckets.(pidx) ~so:(rev31 idx) ~idx in
      (* Publish the shortcut; a racing initializer's loss is benign
         (both found-or-inserted the same immortal dummy). *)
      ignore (T.cas h.th cell ~expected:v (Some d));
      d

  (* Protect the current table for the whole operation and hand its
     payload to [f]. *)
  let with_table h f =
    let tv = T.read h.th ~slot:slot_table h.ds.table in
    match tv with
    | View.Null _ -> assert false      (* the table pointer is never null *)
    | View.Ptr { target = tb; _ } ->
      (match Block.get tb with
       | Node _ -> assert false
       | Table tr -> f tv tb tr)

  let so_regular key = rev31 key lor 1

  let check_key fn key =
    if key < 0 || key >= max_key then
      invalid_arg ("Resizable_hashmap." ^ fn ^ ": key out of range")

  let bucket_cell h tr key =
    let idx = key land ((1 lsl tr.lg) - 1) in
    ignore (ensure_bucket h tr idx);
    tr.buckets.(idx)

  (* Double the table: publish a twice-as-long shortcut array (old
     cells shared, new half lazily initialized) and retire the whole
     superseded Table block through the tracker — the bulk-retirement
     path.  Returns false at the growth cap or when a racing grower
     won (its table is at least as big). *)
  let grow h =
    with_table h (fun tv tb tr ->
      if tr.lg >= h.ds.max_lg then false
      else begin
        let size = 1 lsl tr.lg in
        (* Mask allocation through the linearizing swing and the
           winner's bulk retire: a restart inside would leak the new
           table or re-publish it; no dereference happens inside
           ([tr] was loaded under the table slot's protection). *)
        committed (fun () ->
          let buckets' =
            Array.init (2 * size) (fun i ->
              if i < size then tr.buckets.(i)
              else T.make_ptr h.ds.tracker None)
          in
          let ntb = T.alloc h.th (Table { lg = tr.lg + 1; buckets = buckets' })
          in
          if T.cas h.th h.ds.table ~expected:tv (Some ntb) then begin
            T.retire h.th tb;
            true
          end
          else begin
            T.dealloc h.th ntb;
            false
          end)
      end)

  (* What an insert attempt reports: the key was present, the linking
     CAS lost a race, the node landed, or it landed and pushed the load
     factor past the bound of the table the insert saw. *)
  let present = 0
  let lost_race = 1
  let landed = 2
  let landed_grow = 3

  let migrate h = wrap h (fun () -> grow h)

  (* The linking CAS and the count bump are one committed section.
     The growth the bump may call for runs as an operation of its own
     after the insert's bracket: a neutralization inside it repeats
     only the growth, never the insert, which has already landed. *)
  let insert h ~key ~value =
    check_key "insert" key;
    let r =
      wrap h (fun () ->
        with_table h (fun _ _ tr ->
          let cell = bucket_cell h tr key in
          let so = so_regular key in
          let bound =
            if tr.lg < h.ds.max_lg then load_factor * (1 lsl tr.lg)
            else max_int
          in
          let rec attempt () =
            let prev, curv, found = find h.th cell so in
            match found with
            | Some (_, n, _) when n.so_key = so -> present
            | Some _ | None ->
              let r =
                committed (fun () ->
                  let b =
                    T.alloc h.th
                      (Node { so_key = so; key; value;
                              next =
                                T.make_ptr h.ds.tracker (View.target curv) })
                  in
                  if T.cas h.th prev ~expected:curv (Some b) then
                    if Atomic.fetch_and_add h.ds.count 1 >= bound then
                      landed_grow
                    else landed
                  else begin
                    T.dealloc h.th b;
                    lost_race
                  end)
              in
              if r = lost_race then attempt () else r
          in
          attempt ()))
    in
    if r = landed_grow then ignore (migrate h);
    r <> present

  let remove h ~key =
    check_key "remove" key;
    wrap h (fun () ->
      with_table h (fun _ _ tr ->
        let cell = bucket_cell h tr key in
        let so = so_regular key in
        let prev, curv, found = find h.th cell so in
        match found with
        | Some (bcur, n, nextv) when n.so_key = so ->
          let r =
            (* Mask the linearizing mark CAS with the unlink+retire
               tail, exactly as the Harris list does. *)
            committed (fun () ->
              if
                not
                  (T.cas h.th n.next ~expected:nextv ~tag:marked
                     (View.target nextv))
              then raise Restart
              else begin
                (if T.cas h.th prev ~expected:curv (View.target nextv)
                 then T.retire h.th bcur);
                true
              end)
          in
          if r then Atomic.decr h.ds.count;
          r
        | Some _ | None -> false))

  let get h ~key =
    check_key "get" key;
    wrap h (fun () ->
      with_table h (fun _ _ tr ->
        let cell = bucket_cell h tr key in
        let so = so_regular key in
        let _, _, found = find h.th cell so in
        match found with
        | Some (_, n, _) when n.so_key = so -> Some n.value
        | Some _ | None -> None))

  let contains h ~key = get h ~key <> None

  let table_length t =
    sequential t.tracker (fun th ->
      match T.read th ~slot:slot_table t.table with
      | View.Null _ -> 0
      | View.Ptr { target = tb; _ } ->
        (match Block.get tb with
         | Table tr -> Array.length tr.buckets
         | Node _ -> assert false))

  (* Sequential-context walk of the whole split-ordered list from
     bucket 0's dummy, collecting regular (odd so_key, unmarked)
     nodes; split order is not key order, so sort. *)
  let to_sorted_list t =
    sequential t.tracker (fun th ->
      let rec walk acc v =
        match v with
        | View.Null _ -> acc
        | View.Ptr { target = b; _ } ->
          (match Block.get b with
           | Table _ -> assert false
           | Node n ->
             let nextv = T.read th ~slot:slot_next n.next in
             let acc =
               if n.so_key land 1 = 1 && View.tag nextv <> marked then
                 (n.key, n.value) :: acc
               else acc
             in
             walk acc nextv)
      in
      let start =
        match T.read th ~slot:slot_table t.table with
        | View.Null _ -> assert false
        | View.Ptr { target = tb; _ } ->
          (match Block.get tb with
           | Table tr -> tr.buckets.(0)
           | Node _ -> assert false)
      in
      walk [] (T.read th ~slot:slot_cur start))
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  (* Invariants at quiescence: strictly increasing so_keys (so no
     duplicates), no reachable reclaimed block, every initialized
     bucket cell points at the dummy with that bucket's split-order
     position, and the live count matches the regular population. *)
  let check_invariants t =
    sequential t.tracker (fun th ->
      let tr =
        match T.read th ~slot:slot_table t.table with
        | View.Null _ -> failwith "rhashmap invariant: null table"
        | View.Ptr { target = tb; _ } ->
          if Block.is_reclaimed tb then
            failwith "rhashmap invariant: reclaimed table";
          (match Block.get tb with
           | Table tr -> tr
           | Node _ -> failwith "rhashmap invariant: table points at a node")
      in
      let regular = ref 0 in
      let rec walk last v =
        match v with
        | View.Null _ -> ()
        | View.Ptr { target = b; _ } ->
          if Block.is_reclaimed b then
            failwith "rhashmap invariant: reachable reclaimed block";
          (match Block.get b with
           | Table _ -> failwith "rhashmap invariant: table linked in list"
           | Node n ->
             if n.so_key <= last then
               failwith "rhashmap invariant: so_keys not strictly increasing";
             let nextv = T.read th ~slot:slot_next n.next in
             if n.so_key land 1 = 1 && View.tag nextv <> marked then
               incr regular;
             walk n.so_key nextv)
      in
      walk (-1) (T.read th ~slot:slot_cur tr.buckets.(0));
      let count = Atomic.get t.count in
      if count <> !regular then
        failwith
          (Printf.sprintf "rhashmap invariant: count %d, %d regular nodes"
             count !regular);
      Array.iteri
        (fun idx cell ->
           match T.read th ~slot:slot_prev cell with
           | View.Null _ -> ()
           | View.Ptr { target = b; _ } ->
             (match Block.get b with
              | Table _ -> failwith "rhashmap invariant: bucket -> table"
              | Node n ->
                if n.so_key <> rev31 idx then
                  failwith "rhashmap invariant: bucket dummy mismatch"))
        tr.buckets)

  let map =
    Some { Ds_intf.insert; remove; get; contains; to_sorted_list }

  let queue = None
  let range = None
  let bulk = Some { Ds_intf.migrate; table_length }
end
