(** Command-line vocabulary for [bin/main.exe]'s workload axes: the
    parsers and the parharness-style [--meta] expansion.  The
    {!meta_keys} table is the single source of truth: setters, docs
    ({!meta_key_doc}) and {!expand_metas} all derive from it. *)

(** One point in the sweep space, as raw CLI strings/ints (parsed
    lazily by the runner so error messages can name the axis). *)
type base = {
  rideable : string;
  tracker : string;
  threads : int;
  interval : int;
  mix : string;
  retire : string;
  faults : string;
}

val parse_mix : string -> Workload.mix
(** Accepts the legacy aliases [write]/[read], the full legacy names,
    and the YCSB-like profile letters [A]–[F] (case-insensitive).
    Raises [Failure] naming the valid mixes on unknown input. *)

val parse_retire_backend : string -> Ibr_core.Reclaimer.backend
(** Raises [Failure] listing the registered backends on unknown
    input. *)

val parse_faults : string -> Runner_intf.faults
(** Raises [Failure] listing the fault profiles on unknown input. *)

val meta_keys : (string * string * (base -> string -> base)) list
(** [(key, label, setter)] for every [--meta] axis. *)

val meta_key_doc : string
(** ["r (rideable), d (tracker), ..."] — for option documentation. *)

val expand_metas : string list -> base -> base list
(** [expand_metas metas base] Cartesian-expands parharness-style
    [key:v1:v2:...] specifications over [base].  Raises [Failure] on a
    malformed spec or unknown key. *)
