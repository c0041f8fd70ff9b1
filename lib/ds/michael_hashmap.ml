(* Michael's lock-free hash map [20]: a fixed array of buckets, each
   an ordered lock-free list.  All buckets share one tracker instance
   (one epoch, one reservation table, one allocator), exactly as one
   memory manager serves a whole structure in the paper's framework.

   The bucket count is fixed at creation (Michael's original design;
   resizing is out of scope for the paper's benchmark, which uses a
   fixed key range). *)

open Ibr_core
open Ds_common

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

  include Lifecycle (T) (struct
      type nonrec node = L.node and t = t
      let name = name and slots_needed = slots_needed
      let tracker t = t.tracker
    end)

  let create_sized ?(buckets = default_buckets) ~threads cfg =
    if buckets land (buckets - 1) <> 0 || buckets <= 0 then
      invalid_arg "Michael_hashmap.create: buckets must be a power of two";
    let tracker = create_tracker ~threads cfg in
    {
      tracker;
      buckets = Array.init buckets (fun _ -> T.make_ptr tracker None);
      mask = buckets - 1;
    }

  let create ~threads cfg = create_sized ~threads cfg

  (* Fibonacci hashing: spreads the benchmark's uniform keys and, more
     importantly, adversarially clustered keys across buckets. *)
  let bucket_of t key =
    let h = key * 0x2545F4914F6CDD1D in
    (h lsr 11) land t.mask

  (* The linearization-point masking lives in the bucket operations
     ([Harris_list.Raw]). *)
  let insert h ~key ~value =
    let head = h.ds.buckets.(bucket_of h.ds key) in
    wrap h (fun () -> L.Raw.insert h.ds.tracker h.th head ~key ~value)

  let remove h ~key =
    let head = h.ds.buckets.(bucket_of h.ds key) in
    wrap h (fun () -> L.Raw.remove h.ds.tracker h.th head ~key)

  let get h ~key =
    let head = h.ds.buckets.(bucket_of h.ds key) in
    wrap h (fun () -> L.Raw.get h.ds.tracker h.th head ~key)

  let contains h ~key = get h ~key <> None

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
