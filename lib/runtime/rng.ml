(* Deterministic splitmix64 PRNG.

   Every randomized component of the simulator (schedules, workloads,
   stall injection) draws from an [Rng.t] seeded from the experiment
   seed, so whole experiments replay bit-identically.  splitmix64 is
   chosen for speed and for cheap stream splitting: each simulated
   thread gets an independent stream derived from the root seed. *)

(* The state lives unboxed in 8 bytes.  A [mutable state : int64]
   field would box a fresh [int64] on every draw; here a draw's
   arithmetic stays in registers and allocates nothing (DESIGN.md
   §1a). *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let state t = Bytes.get_int64_le t 0
let set_state t s = Bytes.set_int64_le t 0 s

let create seed =
  let t = Bytes.create 8 in
  set_state t (Int64.of_int seed);
  t

let copy = Bytes.copy

(* splitmix64's output function.  Inlined into each caller, so its
   [int64]s never cross a call and are never boxed. *)
let[@inline] mix z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* One splitmix64 step, returning the output shifted right by [shift]
   as an OCaml int (bits 0-62 of the shifted value).  Nothing is
   boxed: this is the allocation-free path every draw but
   [next_int64] takes. *)
let draw t ~shift =
  let z = Int64.add (state t) golden_gamma in
  set_state t z;
  Int64.to_int (Int64.shift_right_logical (mix z) shift)

(* The raw 64-bit draw; its result is boxed. *)
let next_int64 t =
  let z = Int64.add (state t) golden_gamma in
  set_state t z;
  mix z

(* A non-negative OCaml int (62 significant bits on 64-bit systems). *)
let bits t = draw t ~shift:2

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod bound

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let float t =
  (* 53 uniform bits mapped to [0, 1). *)
  let mask53 = (1 lsl 53) - 1 in
  float_of_int (draw t ~shift:0 land mask53) /. float_of_int (1 lsl 53)

let bool t = draw t ~shift:0 land 1 = 1

(* Probability check: true with probability [p]. *)
let chance t p = if p <= 0.0 then false else if p >= 1.0 then true else float t < p

(* Derive an independent stream; mixing with a large odd constant keeps
   child streams decorrelated from the parent and from each other. *)
let split t =
  let child = Bytes.create 8 in
  set_state child (Int64.mul (next_int64 t) 0xDA942042E4DD58B5L);
  child

let stream ~seed ~index =
  let root = create seed in
  let rec skip i r = if i = 0 then r else (ignore (next_int64 r); skip (i - 1) r) in
  ignore (skip (index land 0xff) root);
  let r = split root in
  set_state r (Int64.logxor (state r) (Int64.of_int ((index + 1) * 0x2545F491)));
  ignore (next_int64 r);
  r

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
