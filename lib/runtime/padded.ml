(* Cache-line padding by copying (see padded.mli), the one place that
   builds a block with [Obj]: a fresh block of the same tag, [padding]
   fields longer, with the original's fields copied in.  [new_block]
   fills a scanned block with [()], so the padding is a valid value
   the GC walks and nothing else reads. *)

let padding = 16

let copy (x : 'a) : 'a =
  let o = Obj.repr x in
  if Obj.is_int o || Obj.tag o >= Obj.lazy_tag then
    invalid_arg "Padded.copy: not a record, tuple or atomic";
  let n = Obj.size o in
  let p = Obj.new_block (Obj.tag o) (n + padding) in
  for i = 0 to n - 1 do
    Obj.set_field p i (Obj.field o i)
  done;
  Obj.obj p
