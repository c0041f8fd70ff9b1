(** Figure data: a terminal table per figure plus a sparkline per
    series, so curve shapes are visible straight from bench output,
    and the tidy CSV the campaigns archive. *)

type series = {
  label : string;
  points : (int * float) list;  (** x (e.g. thread count) -> y *)
}

type figure = {
  fig_id : string;
  title : string;
  ylabel : string;
  series : series list;
}

val sparkline : float list -> string
val to_string : figure -> string

val to_csv : figure -> string
(** Tidy format: header [fig,series,threads,value], then one line per
    point. *)
