(* Michael's lock-free hash map [20]: a fixed array of buckets, each
   an ordered lock-free list.  All buckets share one tracker instance
   (one epoch, one reservation table, one allocator), exactly as one
   memory manager serves a whole structure in the paper's framework.

   The bucket count is fixed at creation (Michael's original design;
   resizing is out of scope for the paper's benchmark, which uses a
   fixed key range). *)

open Ibr_core

module Make (T : Tracker_intf.TRACKER) = struct
  module L = Harris_list.Make (T)

  let name = "michael-hashmap"
  let compatible (p : Tracker_intf.properties) = p.mutable_pointers
  let slots_needed = L.slots_needed

  (* Power of two sized table; the paper's key range is 2^16 and its
     load factor is modest, so default to 2^12 buckets. *)
  let default_buckets = 4096

  type t = {
    tracker : L.node T.t;
    buckets : L.node T.ptr array;
    mask : int;
  }

  type handle = {
    map : t;
    th : L.node T.handle;
    stats : Ds_common.op_stats;
    start_op : unit -> unit;  (* the operation bracket's tracker calls, *)
    end_op : unit -> unit;    (* built once per handle (DESIGN.md §1a) *)
    recover : unit -> unit;
  }

  let create_sized ?(buckets = default_buckets) ~threads cfg =
    if buckets land (buckets - 1) <> 0 || buckets <= 0 then
      invalid_arg "Michael_hashmap.create: buckets must be a power of two";
    Ds_common.check_slots ~rideable:name ~slots_needed (module T) cfg;
    let tracker = T.create ~threads cfg in
    {
      tracker;
      buckets = Array.init buckets (fun _ -> T.make_ptr tracker None);
      mask = buckets - 1;
    }

  let create ~threads cfg = create_sized ~threads cfg

  let make_handle map th =
    { map; th; stats = Ds_common.make_op_stats ();
      start_op = (fun () -> T.start_op th);
      end_op = (fun () -> T.end_op th);
      recover = (fun () -> T.recover th) }

  let register map ~tid = make_handle map (T.register map.tracker ~tid)
  let attach map = Option.map (make_handle map) (T.attach map.tracker)

  let detach h = T.detach h.th
  let handle_tid h = T.handle_tid h.th

  (* Fibonacci hashing: spreads the benchmark's uniform keys and, more
     importantly, adversarially clustered keys across buckets. *)
  let bucket_of t key =
    let h = key * 0x2545F4914F6CDD1D in
    (h lsr 11) land t.mask

  (* The linearization-point masking lives in the bucket operations
     ([Harris_list.Raw]); this wrapper only owes the recovery hook. *)
  let wrap h f =
    Ds_common.with_op ~stats:h.stats ~start_op:h.start_op ~end_op:h.end_op
      ~on_neutralize:h.recover f

  let insert h ~key ~value =
    let head = h.map.buckets.(bucket_of h.map key) in
    wrap h (fun () -> L.Raw.insert h.map.tracker h.th head ~key ~value)

  let remove h ~key =
    let head = h.map.buckets.(bucket_of h.map key) in
    wrap h (fun () -> L.Raw.remove h.map.tracker h.th head ~key)

  let get h ~key =
    let head = h.map.buckets.(bucket_of h.map key) in
    wrap h (fun () -> L.Raw.get h.map.tracker h.th head ~key)

  let contains h ~key = get h ~key <> None

  let retired_count h = T.retired_count h.th
  let force_empty h = T.force_empty h.th
  let allocator_stats t = Alloc.stats (T.allocator t.tracker)
  let reclaim_service t = T.reclaim_service t.tracker
  let epoch_value t = T.epoch_value t.tracker
  let set_capacity t cap = Alloc.set_capacity (T.allocator t.tracker) cap
  let eject t ~tid = T.eject t.tracker ~tid

  let to_sorted_list t =
    Array.to_list t.buckets
    |> List.concat_map (fun head -> L.dump_chain t.tracker head)
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let check_invariants t =
    Array.iter (fun head -> L.check_chain t.tracker head) t.buckets

  let map =
    Some { Ds_intf.insert; remove; get; contains; to_sorted_list }

  let queue = None
  let range = None
  let bulk = None
end
