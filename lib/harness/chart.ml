(* Terminal rendering for figure data: one table per figure (series ×
   thread counts) plus a sparkline so curve shapes — who wins, where
   the crossovers are — can be eyeballed straight from bench output. *)

type series = {
  label : string;
  points : (int * float) list;   (* x (thread count) -> y *)
}

type figure = {
  fig_id : string;
  title : string;
  ylabel : string;
  series : series list;
}

let sparkline values =
  let blocks = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                  "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                  "\xe2\x96\x87"; "\xe2\x96\x88" |] in
  match values with
  | [] -> ""
  | vs ->
    let hi = List.fold_left max neg_infinity vs in
    let lo = 0.0 in
    let range = if hi -. lo <= 0.0 then 1.0 else hi -. lo in
    vs
    |> List.map (fun v ->
      let idx =
        int_of_float ((v -. lo) /. range *. 7.0) |> max 0 |> min 7 in
      blocks.(idx))
    |> String.concat ""

let xs_of fig =
  fig.series
  |> List.concat_map (fun s -> List.map fst s.points)
  |> List.sort_uniq compare

let render ppf fig =
  let xs = xs_of fig in
  Fmt.pf ppf "== %s: %s (%s) ==@." fig.fig_id fig.title fig.ylabel;
  Fmt.pf ppf "%-14s" "threads";
  List.iter (fun x -> Fmt.pf ppf "%9d" x) xs;
  Fmt.pf ppf "   shape@.";
  List.iter (fun s ->
    Fmt.pf ppf "%-14s" s.label;
    let values =
      List.map (fun x ->
        match List.assoc_opt x s.points with
        | Some v -> v
        | None -> nan)
        xs
    in
    List.iter (fun v ->
      if Float.is_nan v then Fmt.pf ppf "%9s" "-"
      else if v >= 1000.0 then Fmt.pf ppf "%9.0f" v
      else Fmt.pf ppf "%9.2f" v)
      values;
    let plottable = List.filter (fun v -> not (Float.is_nan v)) values in
    Fmt.pf ppf "   %s@." (sparkline plottable))
    fig.series;
  Fmt.pf ppf "@."

let to_string fig = Fmt.str "%a" render fig

(* Tidy format, one line per point. *)
let to_csv fig =
  "fig,series,threads,value\n"
  ^ String.concat ""
      (List.concat_map
         (fun s ->
            List.map
              (fun (x, y) ->
                 Printf.sprintf "%s,%s,%d,%.6f\n" fig.fig_id s.label x y)
              s.points)
         fig.series)
