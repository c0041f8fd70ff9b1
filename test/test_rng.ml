(* PRNG: determinism, bounds, stream independence, shuffle. *)

let test_determinism () =
  let a = Ibr_runtime.Rng.create 42 and b = Ibr_runtime.Rng.create 42 in
  for _ = 1 to 1000 do
    Alcotest.(check int) "same stream" (Ibr_runtime.Rng.bits a)
      (Ibr_runtime.Rng.bits b)
  done

let test_seed_sensitivity () =
  let a = Ibr_runtime.Rng.create 1 and b = Ibr_runtime.Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Ibr_runtime.Rng.bits a = Ibr_runtime.Rng.bits b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_int_bounds () =
  let r = Ibr_runtime.Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Ibr_runtime.Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_int_rejects_nonpositive () =
  let r = Ibr_runtime.Rng.create 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Ibr_runtime.Rng.int r 0))

let test_int_in_range () =
  let r = Ibr_runtime.Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Ibr_runtime.Rng.int_in_range r ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_float_unit_interval () =
  let r = Ibr_runtime.Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Ibr_runtime.Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_chance_extremes () =
  let r = Ibr_runtime.Rng.create 13 in
  Alcotest.(check bool) "p=0 never" false (Ibr_runtime.Rng.chance r 0.0);
  Alcotest.(check bool) "p=1 always" true (Ibr_runtime.Rng.chance r 1.0)

let test_chance_rate () =
  let r = Ibr_runtime.Rng.create 15 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Ibr_runtime.Rng.chance r 0.3 then incr hits
  done;
  Alcotest.(check bool) "about 30%" true (!hits > 2600 && !hits < 3400)

let test_streams_independent () =
  let a = Ibr_runtime.Rng.stream ~seed:5 ~index:0 in
  let b = Ibr_runtime.Rng.stream ~seed:5 ~index:1 in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Ibr_runtime.Rng.bits a = Ibr_runtime.Rng.bits b then incr same
  done;
  Alcotest.(check bool) "indexed streams differ" true (!same < 5)

let test_stream_reproducible () =
  let a = Ibr_runtime.Rng.stream ~seed:5 ~index:3 in
  let b = Ibr_runtime.Rng.stream ~seed:5 ~index:3 in
  Alcotest.(check int) "same stream same draw" (Ibr_runtime.Rng.bits a)
    (Ibr_runtime.Rng.bits b)

let test_shuffle_is_permutation () =
  let r = Ibr_runtime.Rng.create 21 in
  let arr = Array.init 50 Fun.id in
  Ibr_runtime.Rng.shuffle_in_place r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_copy_diverges_nothing () =
  let a = Ibr_runtime.Rng.create 33 in
  ignore (Ibr_runtime.Rng.bits a);
  let b = Ibr_runtime.Rng.copy a in
  Alcotest.(check int) "copy continues identically" (Ibr_runtime.Rng.bits a)
    (Ibr_runtime.Rng.bits b)

(* The streams are pinned: every simulated schedule, workload and
   golden file is drawn from them, so a change to the generator's
   representation must not move a single bit.  Literals recorded from
   the int64-field implementation. *)
let first_16 r = List.init 16 (fun _ -> Ibr_runtime.Rng.bits r)

let test_streams_pinned () =
  let open Ibr_runtime in
  Alcotest.(check (list int)) "create 0"
    [ 4073552104164651883; 1990071630548588925; 121904254867886419;
      4477402844195135611; 490437550606523686; 1509523650315790522;
      801824006500076728; 3558130466400086735; 1133040290248155824;
      4390466628494765097; 1828385819961610050; 3509651801762101181;
      2416295617881896670; 2560258272037612107; 3266099039056368454;
      2391077038489821226 ]
    (first_16 (Rng.create 0));
  Alcotest.(check (list int)) "create 0xfa17"
    [ 123389818237686416; 3483781707824570661; 3794913007502913852;
      752585497988716666; 2006798365872591585; 3137345366114598075;
      1308072093939377261; 2337099640589262788; 2705876296055582795;
      3365546758845663752; 4261422548276250787; 109457899817474797;
      560844321022867557; 2402548226243885499; 438461684909607468;
      176510908737528394 ]
    (first_16 (Rng.create 0xfa17));
  Alcotest.(check (list int)) "stream ~seed:7 ~index:3"
    [ 4275838043733453660; 4105078391801523211; 930912997328010734;
      4605018900733245586; 470000649433554510; 3303128900972114203;
      4360165372320533435; 720589870630413508; 315459041754251468;
      708404178563215495; 3494673323394535886; 1889344455512239408;
      1478730955282138122; 2188356005076231046; 1340678106798450540;
      545118248613003944 ]
    (first_16 (Rng.stream ~seed:7 ~index:3));
  Alcotest.(check (float 0.0)) "float of create 42" 0x1.732262feb6e95p-1
    (Rng.float (Rng.create 42));
  let parent = Rng.create 42 in
  let child = Rng.split parent in
  Alcotest.(check int) "split child" 388559547610350658 (Rng.bits child);
  Alcotest.(check int) "split parent" 737456523031723072 (Rng.bits parent);
  let r = Rng.create 5 in
  Alcotest.(check (list bool)) "bool of create 5"
    [ false; false; true; true; true; false; true; true ]
    (List.init 8 (fun _ -> Rng.bool r));
  Alcotest.(check int64) "next_int64 of create 9" (-5859373336115519388L)
    (Rng.next_int64 (Rng.create 9))

let qcheck_bounds =
  QCheck.Test.make ~name:"rng int always within bound" ~count:500
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, bound) ->
       let bound = bound + 1 in
       let r = Ibr_runtime.Rng.create seed in
       let v = Ibr_runtime.Rng.int r bound in
       v >= 0 && v < bound)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int rejects nonpositive" `Quick test_int_rejects_nonpositive;
    Alcotest.test_case "int_in_range" `Quick test_int_in_range;
    Alcotest.test_case "float unit interval" `Quick test_float_unit_interval;
    Alcotest.test_case "chance extremes" `Quick test_chance_extremes;
    Alcotest.test_case "chance rate" `Quick test_chance_rate;
    Alcotest.test_case "streams independent" `Quick test_streams_independent;
    Alcotest.test_case "stream reproducible" `Quick test_stream_reproducible;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "copy" `Quick test_copy_diverges_nothing;
    Alcotest.test_case "streams pinned" `Quick test_streams_pinned;
    QCheck_alcotest.to_alcotest qcheck_bounds;
  ]
