(** Cache-line padding for words that one thread writes on every
    operation while other threads write their neighbours.

    [copy x] is a shallow copy of the heap block [x] with 16 extra
    trailing fields (128 bytes), so the own fields of any two padded
    blocks are at least 128 bytes apart and never share a 64-byte
    line.  It is OCaml 5.2's [Atomic.make_contended] (and
    multicore-magic's [copy_as_padded]) for the 5.1 compiler this
    repository builds with.  Call it at creation only, on a block
    nobody else holds yet:

    {[
      let cell = Padded.copy (Atomic.make 0)
      let stats = Padded.copy { hits = 0; misses = 0 }
    ]}

    Atomic operations, field reads and writes and the GC see the copy
    as an ordinary block of the same tag; the padding fields hold
    [()] and are never read.  Polymorphic comparison and hashing see
    them too, so do not compare padded blocks structurally. *)

val copy : 'a -> 'a
(** @raise Invalid_argument unless [x] is a record, tuple, atomic or
    constructor block: an immediate, closure, float, string or
    all-float record is refused. *)
