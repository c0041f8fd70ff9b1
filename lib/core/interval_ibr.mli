(** Shared chassis for the interval-based schemes of §3.2–3.3.

    TagIBR (CAS and FAA flavours), TagIBR-WCAS, TagIBR-TPA and 2GEIBR
    all keep a per-thread [lower, upper] epoch interval, advance the
    global epoch on allocation ([epoch_freq]), tag blocks with
    birth/retire epochs, and reclaim by interval intersection against
    a sorted reservation snapshot.  They differ only in the shared
    pointer representation and in how a read extends the reader's
    upper endpoint — the [POINTER_OPS] parameter. *)

module type POINTER_OPS = sig
  val name : string
  val props : Tracker_intf.properties

  type 'a ptr

  val make_ptr : ?tag:int -> 'a Block.t option -> 'a ptr

  val read : epoch:Epoch.t -> upper:int Atomic.t -> 'a ptr -> 'a View.t
  (** Must return a view only once the calling thread's upper endpoint
      provably covers the target's birth epoch {e and} that
      reservation was visible when the returned view was (re-)read.
      [Two_ge_ibr.Unfenced] deliberately violates this contract (the
      literal Fig. 6 ordering); the model checker exhibits the
      resulting use-after-free as a minimal schedule witness
      (DESIGN.md §6). *)

  val write : 'a ptr -> ?tag:int -> 'a Block.t option -> unit

  val cas :
    'a ptr -> expected:'a View.t -> ?tag:int -> 'a Block.t option -> bool
end

module Make (P : POINTER_OPS) : Tracker_intf.TRACKER
