(* CI gate for BENCH_6.json (the bench6 campaign:
   bench/main.exe --out DIR bench6 writes DIR/BENCH_6.json).

     dune exec tools/bench_check.exe -- NEW.json [BASELINE.json]

   Fails (exit 1) when NEW is malformed — not JSON, missing fields,
   non-finite numbers — or when any (tracker, background) row
   regresses more than 10% in throughput against the same row of
   BASELINE.  The simulator is deterministic, so a committed baseline
   is exactly reproducible in CI: any drift is a real change.  Rows
   present in only one file are reported but do not fail the check
   (schemes come and go across PRs). *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let read_file path =
  let ic = try open_in path with Sys_error e -> fail "%s" e in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let parse path =
  match Ibr_obs.Json.parse (read_file path) with
  | Ok j -> j
  | Error e -> fail "%s: malformed JSON: %s" path e

type row = {
  tracker : string;
  background : bool;
  throughput : float;
  peak_footprint : float;
  retire_p99 : float;
}

let get_mem name j =
  match Ibr_obs.Json.member name j with
  | Some v -> v
  | None -> fail "row missing field %S" name

let get_num path name j =
  match Ibr_obs.Json.to_float (get_mem name j) with
  | Some f when Float.is_finite f -> f
  | Some _ -> fail "%s: field %S is not finite" path name
  | None -> fail "%s: field %S is not a number" path name

let get_str path name j =
  match Ibr_obs.Json.to_string (get_mem name j) with
  | Some s -> s
  | None -> fail "%s: field %S is not a string" path name

let get_bool path name j =
  match get_mem name j with
  | Ibr_obs.Json.Bool b -> b
  | _ -> fail "%s: field %S is not a bool" path name

let rows path j =
  match Option.bind (Ibr_obs.Json.member "rows" j) Ibr_obs.Json.to_list with
  | None | Some [] -> fail "%s: no \"rows\" array" path
  | Some l ->
    List.map
      (fun r ->
         {
           tracker = get_str path "tracker" r;
           background = get_bool path "background" r;
           throughput = get_num path "throughput" r;
           peak_footprint = get_num path "peak_footprint" r;
           retire_p99 = get_num path "retire_p99" r;
         })
      l

let key r = (r.tracker, r.background)

let () =
  let argc = Array.length Sys.argv in
  if argc < 2 || argc > 3 then
    fail "usage: bench_check NEW.json [BASELINE.json]";
  let fresh = rows Sys.argv.(1) (parse Sys.argv.(1)) in
  Printf.printf "%s: %d rows, schema OK\n" Sys.argv.(1) (List.length fresh);
  if argc = 3 then begin
    let base = rows Sys.argv.(2) (parse Sys.argv.(2)) in
    let regressions = ref 0 in
    List.iter
      (fun b ->
         match List.find_opt (fun f -> key f = key b) fresh with
         | None ->
           Printf.printf "  note: row %s/background=%b only in baseline\n"
             b.tracker b.background
         | Some f ->
           let floor = 0.9 *. b.throughput in
           if f.throughput < floor then begin
             incr regressions;
             Printf.printf
               "  REGRESSION %s/background=%b: throughput %.1f < 90%% of \
                baseline %.1f\n"
               b.tracker b.background f.throughput b.throughput
           end)
      base;
    List.iter
      (fun f ->
         if not (List.exists (fun b -> key b = key f) base) then
           Printf.printf "  note: row %s/background=%b only in new file\n"
             f.tracker f.background)
      fresh;
    if !regressions > 0 then
      fail "%d throughput regression(s) vs %s" !regressions Sys.argv.(2);
    Printf.printf "no regressions vs %s\n" Sys.argv.(2)
  end
