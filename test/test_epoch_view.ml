(* Epoch counter and view cells. *)

open Ibr_core

let test_epoch_starts_at_one () =
  Alcotest.(check int) "initial" 1 (Epoch.peek (Epoch.create ()))

let test_epoch_advance () =
  let e = Epoch.create () in
  Epoch.advance e;
  Epoch.advance e;
  Alcotest.(check int) "advanced twice" 3 (Epoch.peek e)

let test_epoch_tick_frequency () =
  let e = Epoch.create () in
  let counter = ref 0 in
  for _ = 1 to 10 do Epoch.tick e ~counter ~freq:3 done;
  (* Ticks at 3, 6, 9. *)
  Alcotest.(check int) "3 advances in 10 ticks" 4 (Epoch.peek e)

(* A non-positive freq used to be a silent no-advance guard — an epoch
   that never moves starves every epoch-based scheme's bound, so it is
   a configuration error now. *)
let test_epoch_tick_zero_freq () =
  let e = Epoch.create () in
  let counter = ref 0 in
  Alcotest.check_raises "freq 0 rejected"
    (Invalid_argument "Epoch.tick: epoch_freq must be positive")
    (fun () -> Epoch.tick e ~counter ~freq:0);
  Alcotest.check_raises "negative freq rejected"
    (Invalid_argument "Epoch.tick: epoch_freq must be positive")
    (fun () -> Epoch.tick e ~counter ~freq:(-1))

let test_epoch_tick_counter_resets () =
  let e = Epoch.create () in
  let counter = ref 0 in
  for _ = 1 to 1_000 do Epoch.tick e ~counter ~freq:4 done;
  (* The counter is reset on every advance, so it stays below [freq]
     forever instead of growing without bound. *)
  Alcotest.(check bool) "counter bounded" true (!counter < 4);
  Alcotest.(check int) "250 advances" 251 (Epoch.peek e)

let test_epoch_read_equals_peek () =
  let e = Epoch.create () in
  Epoch.advance e;
  Alcotest.(check int) "read = peek" (Epoch.peek e) (Epoch.read e)

let test_view_make_defaults () =
  let v : int View.t = View.make None in
  Alcotest.(check bool) "null" true (View.is_null v);
  Alcotest.(check int) "tag 0" 0 (View.tag v)

let test_view_deref () =
  let b = Block.make ~id:0 99 in
  let v = View.make ~tag:2 (Some b) in
  Alcotest.(check int) "deref" 99 (View.deref_exn v);
  Alcotest.(check int) "tag" 2 (View.tag v);
  Alcotest.check_raises "null deref"
    (Invalid_argument "View.deref_exn: null pointer") (fun () ->
      ignore (View.deref_exn (View.make None)))

let test_view_equal_contents () =
  let b = Block.make ~id:0 1 in
  let v1 = View.make ~tag:1 (Some b) and v2 = View.make ~tag:1 (Some b) in
  Alcotest.(check bool) "same contents, different boxes" true
    (View.equal_contents v1 v2);
  Alcotest.(check bool) "physical inequality" true (v1 != v2);
  (* Null views are boxes too: a shared null would let a CAS against
     a stale null succeed. *)
  let n1 : int View.t = View.make None and n2 = View.make None in
  Alcotest.(check bool) "null views: same contents" true
    (View.equal_contents n1 n2);
  Alcotest.(check bool) "null views: physical inequality" true (n1 != n2);
  Alcotest.(check bool) "tag matters" false
    (View.equal_contents v1 (View.make ~tag:0 (Some b)));
  Alcotest.(check bool) "null vs target" false
    (View.equal_contents v1 (View.make None))

let test_plain_ptr_cas_by_identity () =
  let b1 = Block.make ~id:1 1 and b2 = Block.make ~id:2 2 in
  let p = Plain_ptr.make (Some b1) in
  let v = Plain_ptr.read p in
  (* An equal-content but distinct view must NOT satisfy the CAS. *)
  Alcotest.(check bool) "content-equal expected fails" false
    (Plain_ptr.cas p ~expected:(View.make (Some b1)) (Some b2));
  Alcotest.(check bool) "identical expected succeeds" true
    (Plain_ptr.cas p ~expected:v (Some b2));
  (* A rewrite with equal contents still retires the old box: a stale
     null view must not match the freshly written null. *)
  let q = Plain_ptr.make None in
  let stale = Plain_ptr.read q in
  Plain_ptr.write q None;
  Alcotest.(check bool) "equal contents after the rewrite" true
    (View.equal_contents stale (Plain_ptr.peek q));
  Alcotest.(check bool) "stale null expected fails" false
    (Plain_ptr.cas q ~expected:stale (Some b1));
  (* Tag-only rewrites: re-marking and unmarking returns to the same
     contents in a new box. *)
  let stale = Plain_ptr.read p in
  Plain_ptr.write p ~tag:1 (Some b2);
  Plain_ptr.write p ~tag:0 (Some b2);
  Alcotest.(check bool) "same contents after tag round trip" true
    (View.equal_contents stale (Plain_ptr.peek p));
  Alcotest.(check bool) "stale view after tag round trip fails" false
    (Plain_ptr.cas p ~expected:stale (Some b1))

let qcheck_interval_conflict =
  (* The interval-overlap rule used by empty() must agree with a
     brute-force lifetime intersection check. *)
  QCheck.Test.make ~name:"interval conflict = lifetime intersection"
    ~count:1000
    QCheck.(quad (int_bound 50) (int_bound 50) (int_bound 50) (int_bound 50))
    (fun (birth, len, lower, len2) ->
       let retire = birth + len in
       let upper = lower + len2 in
       let rule = birth <= upper && retire >= lower in
       (* brute force over the discrete epochs *)
       let brute = ref false in
       for e = lower to upper do
         if birth <= e && e <= retire then brute := true
       done;
       rule = !brute)

let suite =
  [
    Alcotest.test_case "epoch starts at 1" `Quick test_epoch_starts_at_one;
    Alcotest.test_case "epoch advance" `Quick test_epoch_advance;
    Alcotest.test_case "epoch tick freq" `Quick test_epoch_tick_frequency;
    Alcotest.test_case "epoch tick freq 0" `Quick test_epoch_tick_zero_freq;
    Alcotest.test_case "epoch tick counter resets" `Quick
      test_epoch_tick_counter_resets;
    Alcotest.test_case "epoch read" `Quick test_epoch_read_equals_peek;
    Alcotest.test_case "view defaults" `Quick test_view_make_defaults;
    Alcotest.test_case "view deref" `Quick test_view_deref;
    Alcotest.test_case "view equal_contents" `Quick test_view_equal_contents;
    Alcotest.test_case "plain ptr CAS identity" `Quick
      test_plain_ptr_cas_by_identity;
    QCheck_alcotest.to_alcotest qcheck_interval_conflict;
  ]
