(* Instantiate rideables over reclamation schemes by name — the OCaml
   analogue of the artifact's rideable menu.  A [maker] closes over a
   functor application and advertises the rideable's capability set,
   so the harness can pick operations (and reject mixes) by capability
   without instantiating anything itself. *)

open Ibr_core

type maker = {
  ds_name : string;
  caps : Ds_intf.caps;
  instantiate : Tracker_intf.packed -> (module Ds_intf.RIDEABLE);
}

(* A rideable's capabilities do not depend on the scheme, so read them
   off the module instantiated over No MM. *)
let maker ds_name instantiate =
  { ds_name;
    caps = Ds_intf.caps_of (instantiate (module No_mm : Tracker_intf.TRACKER));
    instantiate }

let list_maker =
  maker "list" (fun (module T : Tracker_intf.TRACKER) ->
    (module Harris_list.Make (T) : Ds_intf.RIDEABLE))

let hashmap_maker =
  maker "hashmap" (fun (module T : Tracker_intf.TRACKER) ->
    (module Michael_hashmap.Make (T) : Ds_intf.RIDEABLE))

let rhashmap_maker =
  maker "rhashmap" (fun (module T : Tracker_intf.TRACKER) ->
    (module Resizable_hashmap.Make (T) : Ds_intf.RIDEABLE))

let nm_tree_maker =
  maker "nmtree" (fun (module T : Tracker_intf.TRACKER) ->
    (module Nm_tree.Make (T) : Ds_intf.RIDEABLE))

let bonsai_maker =
  maker "bonsai" (fun (module T : Tracker_intf.TRACKER) ->
    (module Bonsai_tree.Make (T) : Ds_intf.RIDEABLE))

let stack_maker =
  maker "stack" (fun (module T : Tracker_intf.TRACKER) ->
    (module Treiber_stack.Make (T) : Ds_intf.RIDEABLE))

let msqueue_maker =
  maker "msqueue" (fun (module T : Tracker_intf.TRACKER) ->
    (module Ms_queue.Make (T) : Ds_intf.RIDEABLE))
(* The paper's four rideables in Fig. 8 order, then the riders added
   for workload diversity. *)
let all =
  [
    list_maker;
    hashmap_maker;
    nm_tree_maker;
    bonsai_maker;
    rhashmap_maker;
    stack_maker;
    msqueue_maker;
  ]

let find name =
  let target = String.lowercase_ascii name in
  List.find_opt (fun m -> String.lowercase_ascii m.ds_name = target) all

let find_exn name =
  match find name with
  | Some m -> m
  | None ->
    invalid_arg
      (Printf.sprintf "Ds_registry.find_exn: unknown rideable %S (known: %s)"
         name (String.concat ", " (List.map (fun m -> m.ds_name) all)))

(* Can [ds] run under [tracker]?  (Checked via the instantiated
   module's own [compatible] predicate.) *)
let compatible maker (module T : Tracker_intf.TRACKER) =
  let (module S : Ds_intf.RIDEABLE) = maker.instantiate (module T) in
  S.compatible T.props

let supporting need =
  List.filter (fun m -> Ds_intf.subsumes m.caps need) all
