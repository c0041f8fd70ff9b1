(* Command-line vocabulary for bin/main.exe's workload axes (rideable,
   tracker, threads, interval, mix, fault profile):
   the string -> value parsers and the parharness-style [--meta]
   Cartesian expansion.  The meta key table is the single source of
   truth: the per-key setters, the documentation string, and the
   expansion all derive from it. *)

type base = {
  rideable : string;
  tracker : string;
  threads : int;
  interval : int;
  mix : string;
  faults : string;
}

let parse_mix s =
  match s with
  | "write" -> Workload.write_dominated
  | "read" -> Workload.read_dominated
  | _ ->
    (match Workload.find_mix s with
     | Some m -> m
     | None ->
       failwith
         (Printf.sprintf "unknown mix %S (write|read|%s)" s
            (String.concat "|"
               (List.map Workload.mix_name Workload.profiles))))

let parse_faults s =
  match Runner_intf.faults_of_string s with
  | Some f -> f
  | None ->
    failwith
      (Printf.sprintf "unknown fault profile %S (%s)" s
         (String.concat "|" (List.map fst Runner_intf.fault_profiles)))

(* The meta key table: key, human label, setter.  Integer-valued keys
   funnel through [int_of_meta] so a bad value names the key. *)
let int_of_meta key v =
  match int_of_string_opt v with
  | Some n -> n
  | None -> failwith (Printf.sprintf "--meta %s wants integers, got %S" key v)

let meta_keys :
  (string * string * (base -> string -> base)) list =
  [
    ("r", "rideable", fun c v -> { c with rideable = v });
    ("d", "tracker", fun c v -> { c with tracker = v });
    ("t", "threads", fun c v -> { c with threads = int_of_meta "t" v });
    ("i", "interval", fun c v -> { c with interval = int_of_meta "i" v });
    ("m", "mix", fun c v -> { c with mix = v });
    ("f", "fault profile", fun c v -> { c with faults = v });
  ]

(* "r (rideable), d (tracker), ..." — interpolated into --meta docs. *)
let meta_key_doc =
  String.concat ", "
    (List.map (fun (k, label, _) -> Printf.sprintf "%s (%s)" k label)
       meta_keys)

let apply_meta cfg (key, v) =
  match List.find_opt (fun (k, _, _) -> k = key) meta_keys with
  | Some (_, _, set) -> set cfg v
  | None ->
    failwith
      (Printf.sprintf "unknown meta key %S (%s)" key
         (String.concat "," (List.map (fun (k, _, _) -> k) meta_keys)))

(* parharness-style expansion: each --meta key:v1:v2 multiplies the
   configuration set. *)
let expand_metas metas base =
  List.fold_left
    (fun configs meta ->
       match String.split_on_char ':' meta with
       | key :: (_ :: _ as values) ->
         List.concat_map
           (fun cfg -> List.map (fun v -> apply_meta cfg (key, v)) values)
           configs
       | _ ->
         failwith (Printf.sprintf "bad --meta %S; want key:v1:v2:..." meta))
    [ base ] metas
