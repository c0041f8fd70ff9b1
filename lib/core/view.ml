(* The value stored in a shared pointer cell: a block reference plus a
   small tag (Harris-style mark bits, Natarajan–Mittal flag/tag bits).

   In C these bits are stolen from pointer alignment; here they ride
   along in the cell value.  Views are *physically* compared by CAS:
   every write allocates a fresh view box, so a CAS succeeds only
   against the exact value a thread previously read.  (This makes
   cell-level ABA impossible — strictly stronger than C++; see
   DESIGN.md §1.)

   The box holds the block itself, with no option in between, so a
   dereference loads view, block, payload — callers match [Ptr]
   instead of allocating through [target].  [Null] carries a field
   for the same reason [Ptr] does: a constant constructor would be
   one shared immediate, and a CAS against a stale null view would
   succeed. *)

type 'a t =
  | Null of { tag : int }
  | Ptr of { target : 'a Block.t; tag : int }

let make ?(tag = 0) target =
  match target with
  (* Opaque, so the compiler never turns [make None] into a shared
     static constant. *)
  | None -> Null { tag = Sys.opaque_identity tag }
  | Some b -> Ptr { target = b; tag }

let target = function Null _ -> None | Ptr { target; _ } -> Some target
let tag = function Null { tag } | Ptr { tag; _ } -> tag
let is_null = function Null _ -> true | Ptr _ -> false

(* Dereference: payload of the target, detecting use-after-free. *)
let deref_exn = function
  | Null _ -> invalid_arg "View.deref_exn: null pointer"
  | Ptr { target; _ } -> Block.get target

let equal_contents a b =
  match a, b with
  | Null { tag = x }, Null { tag = y } -> x = y
  | Ptr p, Ptr q -> p.target == q.target && p.tag = q.tag
  | Null _, Ptr _ | Ptr _, Null _ -> false

let pp ppf = function
  | Null { tag } -> Fmt.pf ppf "null/%d" tag
  | Ptr { target; tag } -> Fmt.pf ppf "%a/%d" Block.pp target tag
