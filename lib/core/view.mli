(** The value stored in a shared pointer cell: a block reference plus
    tag bits (Harris marks, Natarajan–Mittal flag/tag).

    Views are compared {e physically} by CAS: every write allocates a
    fresh view box, so a CAS succeeds only against the exact value a
    thread previously read (cell-level ABA is impossible — see
    DESIGN.md §1).  The type is private so that {!make}, which always
    allocates, is the only way to build one; code that walks a
    structure matches [Ptr] directly, which allocates nothing. *)

type 'a t = private
  | Null of { tag : int }
  | Ptr of { target : 'a Block.t; tag : int }

val make : ?tag:int -> 'a Block.t option -> 'a t
(** A fresh box, never physically equal to another view.  [tag]
    defaults to [0]. *)

val target : 'a t -> 'a Block.t option
(** Allocates on [Ptr]; prefer matching the view on hot paths. *)

val tag : 'a t -> int
val is_null : 'a t -> bool

val deref_exn : 'a t -> 'a
(** Payload of the target (fault-checked).
    @raise Invalid_argument on a null view. *)

val equal_contents : 'a t -> 'a t -> bool
(** Same target block (physically) and same tag — regardless of box
    identity. *)

val pp : Format.formatter -> 'a t -> unit
