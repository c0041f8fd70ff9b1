(* Model tests for the capability surface and the rideables that ride
   outside the map family (ISSUE 10):

   1. MS queue vs a functional two-list queue oracle (qcheck), plus
      concurrent FIFO conservation + per-producer order.
   2. Resizable hashmap: migrations interleaved with map ops keep
      sorted-list equivalence with a model (qcheck) and actually grow
      the table; concurrent inserts racing a dedicated migrator lose
      nothing.
   3. Range linearization spot-check: under insert-only concurrency a
      single scanner's successive scans are sorted, bounded, and
      monotonically non-decreasing (the set only grows, so each
      linearized scan must contain its predecessor).
   4. Capability matrix: every registry maker has a compatible
      tracker, its caps (derived over No MM) equal the module's under
      every compatible tracker, and every workload profile has at
      least one rideable supporting it.
   5. The lifecycle every rideable shares ([Ds_common.Lifecycle]):
      attach up to capacity, refusal beyond it, slot reuse after a
      detach, one operation per handle, detach all. *)

open Ibr_core
open Ibr_runtime
open Ibr_ds

let cfg ?(threads = 1) () =
  { (Tracker_intf.default_config ~threads ()) with
    reuse = false; epoch_freq = 2; empty_freq = 4 }

let entry name =
  match List.find_opt (fun (e : Registry.entry) -> e.name = name)
          Registry.all with
  | Some e -> e
  | None -> Alcotest.failf "no tracker named %s" name

(* --- 1. MS queue vs functional queue oracle ----------------------- *)

(* Two-list functional queue: push to back, pop from front. *)
module Model_queue = struct
  type t = int list * int list

  let empty = ([], [])
  let enqueue (f, b) v = (f, v :: b)

  let norm = function [], b -> (List.rev b, []) | q -> q

  let dequeue q =
    match norm q with
    | [], _ -> (None, q)
    | x :: f, b -> (Some x, (f, b))

  let peek q = match norm q with [], _ -> None | x :: _, _ -> Some x
  let to_list (f, b) = f @ List.rev b
end

let qcheck_msqueue (e : Registry.entry) =
  QCheck.Test.make
    ~name:(Printf.sprintf "ms-queue/%s matches functional queue" e.name)
    ~count:30
    QCheck.(make Gen.(list_size (int_bound 200) (pair (int_bound 2) nat)))
    (fun ops ->
       let (module S : Ds_intf.RIDEABLE) =
         Ds_registry.msqueue_maker.instantiate e.tracker in
       let q = Option.get S.queue in
       let t = S.create ~threads:1 (cfg ()) in
       let h = S.register t ~tid:0 in
       let model = ref Model_queue.empty in
       List.for_all
         (fun (op, v) ->
            match op with
            | 0 ->
              q.Ds_intf.enqueue h v;
              model := Model_queue.enqueue !model v;
              true
            | 1 ->
              let expected, model' = Model_queue.dequeue !model in
              model := model';
              q.Ds_intf.dequeue h = expected
            | _ -> q.Ds_intf.peek h = Model_queue.peek !model)
         ops
       && q.Ds_intf.to_seq_list t = Model_queue.to_list !model)

let test_queue_concurrent (e : Registry.entry) () =
  let (module S : Ds_intf.RIDEABLE) =
    Ds_registry.msqueue_maker.instantiate e.tracker in
  let q = Option.get S.queue in
  Fault.set_mode Fault.Raise;
  let producers = 3 in
  let threads = producers + 1 in
  let t = S.create ~threads (cfg ~threads ()) in
  let sched =
    Sched.create
      { (Sched.test_config ~cores:3 ~seed:41 ()) with
        stall_prob = 0.02; stall_len = 1500; quantum = 90 } in
  let dequeued = ref [] in
  (* Consumer on tid 0: per-producer order at a single consumer is the
     FIFO property made checkable without a global clock. *)
  ignore
    (Sched.spawn sched (fun tid ->
       let h = S.register t ~tid in
       for _ = 1 to producers * 300 do
         match q.Ds_intf.dequeue h with
         | Some v -> dequeued := v :: !dequeued
         | None -> ()
       done));
  for _ = 1 to producers do
    ignore
      (Sched.spawn sched (fun tid ->
         let h = S.register t ~tid in
         for j = 1 to 200 do
           q.Ds_intf.enqueue h ((tid * 1_000_000) + j)
         done))
  done;
  Sched.run sched;
  let dequeued = List.rev !dequeued in
  let remaining = q.Ds_intf.to_seq_list t in
  let enqueued =
    List.concat_map
      (fun p -> List.init 200 (fun j -> (p * 1_000_000) + j + 1))
      (List.init producers (fun i -> i + 1))
  in
  Alcotest.(check (list int)) "conservation"
    (List.sort compare enqueued)
    (List.sort compare (dequeued @ remaining));
  (* FIFO per producer: each producer's values reach the consumer (and
     the residue) in the order they were enqueued. *)
  List.iter
    (fun p ->
       let mine =
         List.filter (fun v -> v / 1_000_000 = p) (dequeued @ remaining)
       in
       Alcotest.(check (list int))
         (Printf.sprintf "producer %d order" p)
         (List.sort compare mine) mine)
    (List.init producers (fun i -> i + 1));
  S.check_invariants t

(* --- 2. resizable hashmap migrations vs model --------------------- *)

let qcheck_rhashmap_migrate (e : Registry.entry) =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "resizable-hashmap/%s migrations keep the model"
         e.name)
    ~count:20
    QCheck.(make Gen.(list_size (int_bound 250)
                        (pair (int_bound 9) (int_bound 63))))
    (fun ops ->
       let (module T : Tracker_intf.TRACKER) = e.tracker in
       let module RH = Resizable_hashmap.Make (T) in
       (* Tiny initial table so the op stream crosses several growths. *)
       let t = RH.create_sized ~lg:1 ~max_lg:8 ~threads:1 (cfg ()) in
       let h = RH.register t ~tid:0 in
       let m = Option.get RH.map in
       let b = Option.get RH.bulk in
       let model = Hashtbl.create 16 in
       List.for_all
         (fun (op, k) ->
            match op with
            | 0 | 1 | 2 ->
              let expected = not (Hashtbl.mem model k) in
              let got = m.Ds_intf.insert h ~key:k ~value:(k * 7) in
              if got then Hashtbl.replace model k (k * 7);
              got = expected
            | 3 | 4 ->
              let expected = Hashtbl.mem model k in
              let got = m.Ds_intf.remove h ~key:k in
              if got then Hashtbl.remove model k;
              got = expected
            | 5 ->
              (* Forced bulk migration: retires the whole table. *)
              ignore (b.Ds_intf.migrate h);
              true
            | _ -> m.Ds_intf.get h ~key:k = Hashtbl.find_opt model k)
         ops
       &&
       (RH.check_invariants t;
        m.Ds_intf.to_sorted_list t
        = (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
           |> List.sort compare)))

let test_rhashmap_concurrent_migrate (e : Registry.entry) () =
  let (module T : Tracker_intf.TRACKER) = e.tracker in
  let module RH = Resizable_hashmap.Make (T) in
  Fault.set_mode Fault.Raise;
  let writers = 3 in
  let threads = writers + 1 in
  let t = RH.create_sized ~lg:1 ~max_lg:10 ~threads (cfg ~threads ()) in
  let m = Option.get RH.map in
  let b = Option.get RH.bulk in
  let initial_len = b.Ds_intf.table_length t in
  let sched =
    Sched.create
      { (Sched.test_config ~cores:3 ~seed:57 ()) with
        stall_prob = 0.02; stall_len = 1500; quantum = 90 } in
  (* Dedicated migrator racing the writers: every migration retires
     the live bucket-shortcut array under them. *)
  ignore
    (Sched.spawn sched (fun tid ->
       let h = RH.register t ~tid in
       for _ = 1 to 6 do ignore (b.Ds_intf.migrate h) done));
  for w = 1 to writers do
    ignore
      (Sched.spawn sched (fun tid ->
         let h = RH.register t ~tid in
         for j = 0 to 149 do
           ignore
             (m.Ds_intf.insert h ~key:((j * writers) + w) ~value:(tid + j))
         done;
         ignore w))
  done;
  Sched.run sched;
  (* Disjoint key spaces, no removes: nothing may be lost across the
     migrations. *)
  let keys = List.map fst (m.Ds_intf.to_sorted_list t) in
  let expected =
    List.concat_map
      (fun w -> List.init 150 (fun j -> (j * writers) + w))
      (List.init writers (fun i -> i + 1))
    |> List.sort compare
  in
  Alcotest.(check (list int)) "no key lost across migrations"
    expected keys;
  Alcotest.(check bool) "table grew" true
    (b.Ds_intf.table_length t > initial_len);
  RH.check_invariants t

(* --- 3. range scans: linearization spot-check --------------------- *)

let test_range_monotone (maker : Ds_registry.maker)
    (e : Registry.entry) () =
  let (module S : Ds_intf.RIDEABLE) = maker.instantiate e.tracker in
  let m = Option.get S.map in
  let r = Option.get S.range in
  Fault.set_mode Fault.Raise;
  let writers = 3 in
  let threads = writers + 1 in
  let t = S.create ~threads (cfg ~threads ()) in
  let sched =
    Sched.create
      { (Sched.test_config ~cores:3 ~seed:73 ()) with
        stall_prob = 0.02; stall_len = 1500; quantum = 90 } in
  let lo = 32 and hi = 96 in
  let violations = ref [] in
  ignore
    (Sched.spawn sched (fun tid ->
       let h = S.register t ~tid in
       let prev = ref [] in
       for _ = 1 to 40 do
         let scan = r.Ds_intf.range h ~lo ~hi in
         let keys = List.map fst scan in
         (* Sorted, strictly increasing, inside the bounds. *)
         let rec sorted = function
           | a :: (b :: _ as rest) -> a < b && sorted rest
           | _ -> true
         in
         if not (sorted keys) then
           violations := "unsorted scan" :: !violations;
         if List.exists (fun k -> k < lo || k > hi) keys then
           violations := "out-of-bounds key" :: !violations;
         (* Insert-only world: the set only grows, so a later scan must
            contain every key an earlier one returned. *)
         if not
              (List.for_all (fun k -> List.mem k keys) !prev)
         then violations := "scan lost a key" :: !violations;
         prev := keys
       done));
  for w = 1 to writers do
    ignore
      (Sched.spawn sched (fun tid ->
         let h = S.register t ~tid in
         let rng = Rng.stream ~seed:(400 + w) ~index:w in
         for _ = 1 to 150 do
           let k = Rng.int rng 128 in
           ignore (m.Ds_intf.insert h ~key:k ~value:(tid + k))
         done))
  done;
  Sched.run sched;
  (match !violations with
   | [] -> ()
   | v :: _ -> Alcotest.failf "range linearization violated: %s" v);
  (* Quiescent: the scan equals the model filter of the final dump. *)
  let h = S.register t ~tid:0 in
  let final = r.Ds_intf.range h ~lo ~hi in
  let expected =
    List.filter (fun (k, _) -> lo <= k && k <= hi)
      (m.Ds_intf.to_sorted_list t)
  in
  Alcotest.(check (list (pair int int))) "quiescent scan = model filter"
    expected final;
  S.check_invariants t

(* --- 4. capability matrix ----------------------------------------- *)

(* The registry derives each maker's caps once, from the module
   instantiated over No MM; the module under any scheme it pairs with
   must export the same caps. *)
let test_caps_consistent () =
  List.iter
    (fun (maker : Ds_registry.maker) ->
       match
         List.filter
           (fun (e : Registry.entry) ->
             Ds_registry.compatible maker e.tracker)
           Registry.all
       with
       | [] -> Alcotest.failf "%s: no compatible tracker at all" maker.ds_name
       | es ->
         List.iter
           (fun (e : Registry.entry) ->
              let derived = Ds_intf.caps_of (maker.instantiate e.tracker) in
              if derived <> maker.caps then
                Alcotest.failf "%s: registry advertises %s, module over %s \
                                exports %s"
                  maker.ds_name
                  (Ds_intf.caps_to_string maker.caps)
                  e.name
                  (Ds_intf.caps_to_string derived))
           es)
    Ds_registry.all

let test_profiles_runnable () =
  List.iter
    (fun mix ->
       let need = Ibr_harness.Workload.required mix in
       match Ds_registry.supporting need with
       | [] ->
         Alcotest.failf "profile %s (%s): no rideable supports it"
           (Ibr_harness.Workload.mix_name mix)
           (Ds_intf.caps_to_string need)
       | _ -> ())
    Ibr_harness.Workload.profiles

(* --- 5. the shared lifecycle ----------------------------------------- *)

(* Four census slots: [attach] claims the lowest free one and refuses
   a fifth; a detached slot is the next one claimed.  Each handle then
   runs one operation through the capability record, and after every
   handle detaches the structure holds one entry per handle. *)
let test_lifecycle (maker : Ds_registry.maker) (e : Registry.entry) () =
  let (module S : Ds_intf.RIDEABLE) = maker.instantiate e.tracker in
  let threads = 4 in
  let t = S.create ~threads (cfg ~threads ()) in
  let attach () =
    match S.attach t with
    | Some h -> h
    | None -> Alcotest.fail "attach refused below capacity"
  in
  let hs = Array.init threads (fun _ -> attach ()) in
  Alcotest.(check (list int)) "lowest free slot first" [ 0; 1; 2; 3 ]
    (Array.to_list (Array.map S.handle_tid hs));
  Alcotest.(check bool) "attach refused at capacity" true
    (Option.is_none (S.attach t));
  S.detach hs.(2);
  hs.(2) <- attach ();
  Alcotest.(check int) "the freed slot is reused" 2 (S.handle_tid hs.(2));
  let tids = [ 0; 1; 2; 3 ] in
  (match S.map, S.queue with
   | Some m, _ ->
     Array.iteri (fun i h -> ignore (m.insert h ~key:i ~value:i)) hs;
     Array.iter S.detach hs;
     S.check_invariants t;
     Alcotest.(check (list (pair int int))) "one entry per handle"
       (List.map (fun i -> (i, i)) tids) (m.to_sorted_list t)
   | None, Some q ->
     Array.iteri (fun i h -> q.enqueue h i) hs;
     Array.iter S.detach hs;
     S.check_invariants t;
     Alcotest.(check (list int)) "one element per handle" tids
       (List.sort compare (q.to_seq_list t))
   | None, None -> Alcotest.fail "neither map nor queue")

let queue_entries =
  List.filter
    (fun (e : Registry.entry) ->
      Ds_registry.compatible Ds_registry.msqueue_maker e.tracker)
    Registry.all

let rhashmap_entries =
  List.filter
    (fun (e : Registry.entry) ->
      Ds_registry.compatible Ds_registry.rhashmap_maker e.tracker)
    Registry.all

let suite =
  List.map
    (fun (e : Registry.entry) ->
       QCheck_alcotest.to_alcotest (qcheck_msqueue e))
    (List.filter (fun (e : Registry.entry) ->
         e.name = "EBR" || e.name = "HP" || e.name = "2GEIBR")
        queue_entries)
  @ List.map
      (fun (e : Registry.entry) ->
         Alcotest.test_case
           (Printf.sprintf "ms-queue/%s: concurrent FIFO" e.name)
           `Quick (test_queue_concurrent e))
      queue_entries
  @ List.map
      (fun (e : Registry.entry) ->
         QCheck_alcotest.to_alcotest (qcheck_rhashmap_migrate e))
      (List.filter (fun (e : Registry.entry) ->
           e.name = "EBR" || e.name = "HP" || e.name = "2GEIBR")
          rhashmap_entries)
  @ List.map
      (fun (e : Registry.entry) ->
         Alcotest.test_case
           (Printf.sprintf "resizable-hashmap/%s: concurrent migrations"
              e.name)
           `Quick (test_rhashmap_concurrent_migrate e))
      rhashmap_entries
  @ List.concat_map
      (fun (maker : Ds_registry.maker) ->
         List.filter_map
           (fun (e : Registry.entry) ->
              if
                Ds_registry.compatible maker e.tracker
                && (e.name = "EBR" || e.name = "2GEIBR" || e.name = "HE")
              then
                Some
                  (Alcotest.test_case
                     (Printf.sprintf "%s/%s: range monotone" maker.ds_name
                        e.name)
                     `Quick
                     (test_range_monotone maker e))
              else None)
           Registry.all)
      (List.filter
         (fun (m : Ds_registry.maker) ->
           m.caps.Ds_intf.range && m.caps.Ds_intf.map)
         Ds_registry.all)
  @ List.concat_map
      (fun (maker : Ds_registry.maker) ->
         List.filter_map
           (fun (e : Registry.entry) ->
              if Ds_registry.compatible maker e.tracker then
                Some
                  (Alcotest.test_case
                     (Printf.sprintf "%s/%s: attach, detach, re-attach"
                        maker.ds_name e.name)
                     `Quick (test_lifecycle maker e))
              else None)
           [ entry "EBR"; entry "HE"; entry "2GEIBR" ])
      Ds_registry.all
  @ [
      Alcotest.test_case "registry caps = module caps" `Quick
        test_caps_consistent;
      Alcotest.test_case "every profile has a rideable" `Quick
        test_profiles_runnable;
    ]
