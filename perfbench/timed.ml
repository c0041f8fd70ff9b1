(* The two timing wrappers the benchmark measures layers with.  Every
   span is taken around a call into a layer, from outside it; nothing
   inside the program is instrumented.

   [Tracker] wraps a reclamation scheme and is what the rideable is
   instantiated over, so every tracker call a data structure makes is
   timed.  [Rideable] wraps the instantiated structure and is what
   [Run_engine.run] drives: it times each operation, keeps the created
   structure for the post-run checks, marks the end of set-up at the
   first measured registration, and times the background reclaimer's
   drains. *)

open Ibr_core
open Ibr_ds

(* The map output gate: keys strictly ascending (so sorted and unique),
   inside [lo, hi], each stored with its own key as value — the engine
   and the prefill always insert [~value:key]. *)
let entries_ok ~lo ~hi entries =
  let rec go prev = function
    | [] -> true
    | (k, v) :: rest -> k > prev && k <= hi && v = k && go k rest
  in
  go (lo - 1) entries

module Tracker (T : Tracker_intf.TRACKER) : Tracker_intf.TRACKER = struct
  let name = T.name
  let props = T.props

  (* [inline]: retirements sweep on the calling thread (no background
     reclaimer), so a retire after which the handle's store did not
     grow by exactly one block ran a sweep. *)
  type 'a t = { tr : 'a T.t; inline : bool }
  type 'a handle = { h : 'a T.handle; owner : 'a t; acc : Spans.acc }
  type 'a ptr = 'a T.ptr

  let create ~threads (cfg : Tracker_intf.config) =
    { tr = T.create ~threads cfg; inline = not cfg.background_reclaim }

  let wrap owner h = { h; owner; acc = Spans.acc (T.handle_tid h) }
  let register t ~tid = wrap t (T.register t.tr ~tid)
  let attach t = Option.map (wrap t) (T.attach t.tr)
  let detach w = T.detach w.h
  let handle_tid w = T.handle_tid w.h

  let alloc w v =
    let e0 = T.epoch_value w.owner.tr in
    let t0 = Spans.now () in
    let b = T.alloc w.h v in
    let d = Spans.now () - t0 in
    Spans.alloc w.acc ~advanced:(T.epoch_value w.owner.tr <> e0) d;
    b

  let dealloc w b = T.dealloc w.h b

  let retire w b =
    let c0 = if w.owner.inline then T.retired_count w.h else 0 in
    let t0 = Spans.now () in
    T.retire w.h b;
    let d = Spans.now () - t0 in
    Spans.retire w.acc
      ~swept:(w.owner.inline && T.retired_count w.h <> c0 + 1)
      d

  let start_op w =
    let t0 = Spans.now () in
    T.start_op w.h;
    Spans.bracket w.acc ~start:true (Spans.now () - t0)

  let end_op w =
    let t0 = Spans.now () in
    T.end_op w.h;
    Spans.bracket w.acc ~start:false (Spans.now () - t0)

  let make_ptr t ?tag b = T.make_ptr t.tr ?tag b

  let read w ~slot p =
    let t0 = Spans.now () in
    let v = T.read w.h ~slot p in
    Spans.read w.acc (Spans.now () - t0);
    v

  let read_root w p =
    let t0 = Spans.now () in
    let v = T.read_root w.h p in
    Spans.read w.acc (Spans.now () - t0);
    v

  let write w p ?tag b = T.write w.h p ?tag b

  let cas w p ~expected ?tag b =
    let t0 = Spans.now () in
    let ok = T.cas w.h p ~expected ?tag b in
    Spans.cas w.acc ~ok (Spans.now () - t0);
    ok

  let unreserve w ~slot = T.unreserve w.h ~slot
  let reassign w ~src ~dst = T.reassign w.h ~src ~dst
  let retired_count w = T.retired_count w.h
  let force_empty w = T.force_empty w.h
  let allocator t = T.allocator t.tr
  let epoch_value t = T.epoch_value t.tr
  let reclaim_service t = T.reclaim_service t.tr
  let eject t ~tid = T.eject t.tr ~tid
  let recover w = T.recover w.h
end

module Rideable (S : Ds_intf.RIDEABLE) = struct
  let name = S.name
  let compatible = S.compatible
  let slots_needed = S.slots_needed

  type t = S.t

  (* [measured] is false for the prefill handle, whose ops run untimed
     during set-up. *)
  type handle = { h : S.handle; acc : Spans.acc; measured : bool }

  (* The structure the engine created, kept for the post-run checks. *)
  let captured : S.t option ref = ref None
  let registrations = Atomic.make 0

  let create ~threads cfg =
    Spans.setup_start := Ibr_runtime.Monotonic.now_ns ();
    let t = S.create ~threads cfg in
    captured := Some t;
    Atomic.set registrations 0;
    t

  (* The engine registers the prefill handle first, then one handle
     per worker inside the measured phase.  The slot's accumulator is
     renewed before [S.register] so the tracker wrapper picks it up. *)
  let register t ~tid =
    let measured = Atomic.fetch_and_add registrations 1 > 0 in
    let acc = Spans.renew tid in
    let h = S.register t ~tid in
    if measured then Spans.begin_measured ();
    { h; acc; measured }

  let attach t =
    Option.map
      (fun h -> { h; acc = Spans.acc (S.handle_tid h); measured = true })
      (S.attach t)

  let detach w = S.detach w.h
  let handle_tid w = S.handle_tid w.h
  let retired_count w = S.retired_count w.h
  let force_empty w = S.force_empty w.h
  let allocator_stats = S.allocator_stats
  let epoch_value = S.epoch_value
  let set_capacity = S.set_capacity
  let eject = S.eject
  let check_invariants = S.check_invariants

  let reclaim_service t =
    Option.map
      (fun (svc : Handoff.service) ->
        { svc with drain = (fun () -> Spans.drain svc) })
      (S.reclaim_service t)

  (* Each op is spelled out rather than passed as a closure, so the
     wrapper allocates nothing per operation. *)
  let map =
    Option.map
      (fun (m : (S.t, S.handle) Ds_intf.map_ops) ->
        let insert w ~key ~value =
          if not w.measured then begin
            let ok = m.insert w.h ~key ~value in
            if ok then incr Spans.prefill_inserted;
            ok
          end
          else begin
            let t0 = Spans.op_begin w.acc in
            let ok = m.insert w.h ~key ~value in
            Spans.op_end w.acc t0;
            if ok then w.acc.inserted <- w.acc.inserted + 1;
            ok
          end
        in
        let remove w ~key =
          if not w.measured then m.remove w.h ~key
          else begin
            let t0 = Spans.op_begin w.acc in
            let ok = m.remove w.h ~key in
            Spans.op_end w.acc t0;
            if ok then w.acc.removed <- w.acc.removed + 1;
            ok
          end
        in
        let get w ~key =
          if not w.measured then m.get w.h ~key
          else begin
            let t0 = Spans.op_begin w.acc in
            let r = m.get w.h ~key in
            Spans.op_end w.acc t0;
            r
          end
        in
        let contains w ~key =
          if not w.measured then m.contains w.h ~key
          else begin
            let t0 = Spans.op_begin w.acc in
            let r = m.contains w.h ~key in
            Spans.op_end w.acc t0;
            r
          end
        in
        { Ds_intf.insert; remove; get; contains;
          to_sorted_list = m.to_sorted_list })
      S.map

  let range =
    Option.map
      (fun (r : S.handle Ds_intf.range_ops) ->
        let range w ~lo ~hi =
          let t0 = Spans.op_begin w.acc in
          let entries = r.range w.h ~lo ~hi in
          Spans.op_end w.acc t0;
          if not (entries_ok ~lo ~hi entries) then
            w.acc.bad_scans <- w.acc.bad_scans + 1;
          entries
        in
        { Ds_intf.range })
      S.range

  (* The benchmark's workloads draw only map and range operations. *)
  let queue = None
  let bulk = None
end
