(** Instantiate rideables over reclamation schemes by name — the OCaml
    analogue of the artifact's rideable menu.  A {!maker} closes over
    a functor application and advertises the rideable's capability
    set; the harness composes it with a tracker from
    [Ibr_core.Registry] and selects operations by capability. *)

open Ibr_core

type maker = {
  ds_name : string;
  caps : Ds_intf.caps;
  (** What the module exports ([Some] capability records), read off
      its instantiation over No MM with {!Ds_intf.caps_of}. *)
  instantiate : Tracker_intf.packed -> (module Ds_intf.RIDEABLE);
}

val list_maker : maker
val hashmap_maker : maker
val rhashmap_maker : maker
val nm_tree_maker : maker
val bonsai_maker : maker
val stack_maker : maker
val msqueue_maker : maker

val all : maker list
(** The paper's four rideables in Fig. 8 order, then the riders added
    for workload diversity (rhashmap, stack, msqueue). *)

val find : string -> maker option
(** Case-insensitive lookup by rideable name. *)

val find_exn : string -> maker
(** Like {!find} but raises [Invalid_argument] listing the known
    rideables. *)

val compatible : maker -> Tracker_intf.packed -> bool
(** Can this rideable run under this tracker?  (Checked via the
    instantiated module's own [compatible] predicate.) *)

val supporting : Ds_intf.caps -> maker list
(** The rideables whose capabilities subsume [need] — what a
    capability-mismatch error should suggest. *)
