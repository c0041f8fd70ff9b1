(* The gated campaigns: every claim they check holds, every CSV file
   they write is a rectangle, and a failed claim fails the run. *)

open Ibr_harness

(* Every line of a CSV file has as many fields as its header. *)
let rectangular (file, contents) =
  if Filename.check_suffix file ".csv" then
    match List.filter (( <> ) "") (String.split_on_char '\n' contents) with
    | [] -> ()
    | header :: rows ->
      let fields line = List.length (String.split_on_char ',' line) in
      List.iteri
        (fun i row ->
           if fields row <> fields header then
             Alcotest.failf "%s line %d: %d fields under a %d-column header"
               file (i + 2) (fields row) (fields header))
        rows

let claims_hold name count () =
  let c = List.find (fun (c : Campaign.t) -> c.name = name) Campaign.all in
  let r = c.run () in
  Alcotest.(check int) (name ^ " claim count") count (List.length r.claims);
  List.iter
    (fun (c : Campaign.claim) ->
       Alcotest.(check bool) (Printf.sprintf "%s (%s)" c.claim c.detail) true
         c.holds)
    r.claims;
  List.iter rectangular r.files

let test_failed_claim_fails_run () =
  let fake holds =
    { Campaign.name = "fake";
      run =
        (fun () ->
           { text = "";
             claims = [ { claim = "fake"; holds; detail = "" } ];
             files = [ ("fake.csv", "a,b\n") ] }) }
  in
  let dir = Filename.temp_dir "campaign" "" in
  Alcotest.(check int) "all claims hold: exit 0" 0
    (Campaign.main [ fake true ] [ "--out"; dir ]);
  let file = Filename.concat dir "fake.csv" in
  Alcotest.(check string) "file written under --out" "a,b\n"
    (In_channel.with_open_bin file In_channel.input_all);
  Sys.remove file;
  Sys.rmdir dir;
  Alcotest.(check int) "a failed claim: exit 1" 1
    (Campaign.main [ fake false ] [ "fake" ]);
  Alcotest.(check int) "unknown campaign: exit 2" 2
    (Campaign.main [ fake true ] [ "nope" ])

let suite =
  [
    Alcotest.test_case "robust: all 14 claims hold" `Quick
      (claims_hold "robust" 14);
    Alcotest.test_case "service: the SLO claim holds" `Quick
      (claims_hold "service" 1);
    Alcotest.test_case "service-heal: all 4 claims hold" `Quick
      (claims_hold "service-heal" 4);
    Alcotest.test_case "a failed claim fails the run" `Quick
      test_failed_claim_fails_run;
  ]
