(* Ejection/neutralization watchdog (DEBRA+/NBR-style; DESIGN.md §7,
   §12).

   A monitor thread wakes every [period] time units and compares each
   worker's operation counter against its last observation.  A worker
   that has completed at least one operation (so startup latency
   cannot be mistaken for death) and then shows no progress for
   [grace] consecutive checks is presumed crashed, and the configured
   {!remedy} is applied:

   - [Eject] (the default, DESIGN.md §7): the worker's reservations
     are expired through the tracker's [eject] hook, unpinning every
     retired block it held.  The worker is written off — but not
     forever: if its progress counter moves again (the "dead" thread
     was merely slow, or a joiner reuses the census slot), the slot is
     re-armed and monitored afresh rather than left in a blind spot.

   - [Neutralize deliver] (DEBRA+, DESIGN.md §12): [deliver tid]
     sends the victim a restart signal instead of writing it off.
     The victim unwinds its current attempt at the next delivery
     point, recovers (drops and re-establishes protection), and keeps
     working.  The slot stays monitored: when the counter moves again
     the thread is counted [recovered]; if it stays frozen for
     another [grace] checks the signal is delivered again.

   The monitoring state and per-check scan ([check_round]) are backend
   independent; [spawn] runs the scan as one more service thread of
   any {!Runner_intf.exec}.  On the sim that is a fiber stepping
   [period] virtual cycles per round; on domains it is a real monitor
   domain sleeping [period] microseconds of monotonic wall clock per
   round, reading the workers' progress counters racily (stale reads
   only delay an ejection by a round, which the grace budget
   absorbs).

   The progress heuristic is exactly that — a heuristic.  Ejecting a
   thread that is merely slow (deep oversubscription, a long injected
   stall, an OS-descheduled domain) readmits use-after-free, because
   the thread may still dereference blocks its reservation was
   protecting.  [grace * period] must therefore exceed the longest
   legitimate dispatch gap; fault profiles that arm an *ejecting*
   watchdog disable stall injection for the same reason, and the
   wall-clock default (15 ms x 3) dwarfs an OS scheduling quantum.
   Neutralization has no such caveat: signalling a live thread is
   sound (it restarts an attempt it could have lost to a CAS race
   anyway), which is why the stall+neutralize profile may keep stall
   injection on.  See the soundness caveat on
   {!Ibr_core.Tracker_intf}. *)

type remedy =
  | Eject
  | Neutralize of (int -> unit)

type t = {
  threads : int;
  grace : int;
  remedy : remedy;
  active : int -> bool;
  progress : int -> int;
  eject : int -> unit;
  last : int array;            (* min_int = not yet armed *)
  stale : int array;
  mutable ejections : int;
  mutable neutralizations : int;
  mutable recovered : int;     (* threads that resumed after a signal *)
  ejected : bool array;
  neutralized : bool array;    (* signal delivered, recovery pending *)
}

let ejections w = w.ejections
let neutralizations w = w.neutralizations
let recovered w = w.recovered
let ejected w tid = w.ejected.(tid)
let neutralized w tid = w.neutralized.(tid)

(* Watchdog instances are per-run; the metric is published at end.
   The neutralization gauges are registered lazily, at the first
   Neutralize-watchdog creation or service run, so runs that do
   neither keep the legacy CSV layout byte-for-byte (same precedent as
   the histogram columns; see Metrics). *)
let gauge = Ibr_obs.Metrics.register_gauge ~name:"ejections" ~order:510

let neutralize_gauges =
  lazy
    ( Ibr_obs.Metrics.register_gauge ~name:"neutralizations" ~order:511,
      Ibr_obs.Metrics.register_gauge ~name:"recovered" ~order:512 )

let register_gauges () = ignore (Lazy.force neutralize_gauges)

let publish w =
  gauge := w.ejections;
  match w.remedy with
  | Eject -> ()
  | Neutralize _ ->
    let ng, rg = Lazy.force neutralize_gauges in
    ng := w.neutralizations;
    rg := w.recovered

let make ~period ~grace ~threads ~remedy ~active ~progress ~eject =
  if period < 1 then invalid_arg "Watchdog: period < 1";
  if grace < 1 then invalid_arg "Watchdog: grace < 1";
  (match remedy with Eject -> () | Neutralize _ -> register_gauges ());
  {
    threads;
    grace;
    remedy;
    active;
    progress;
    eject;
    last = Array.make threads min_int;
    stale = Array.make threads 0;
    ejections = 0;
    neutralizations = 0;
    recovered = 0;
    ejected = Array.make threads false;
    neutralized = Array.make threads false;
  }

(* One monitoring scan over every census slot. *)
let check_round w =
  for tid = 0 to w.threads - 1 do
    if not (w.active tid) then begin
      (* Detached slot (dynamic census): a free slot has no
         occupant to monitor.  Forget its history so a future
         occupant re-arms from scratch — ejecting a joiner
         against the leaver's counter would neutralize a live
         thread, which readmits use-after-free. *)
      w.last.(tid) <- min_int;
      w.stale.(tid) <- 0;
      w.ejected.(tid) <- false;
      w.neutralized.(tid) <- false
    end
    else if w.ejected.(tid) then begin
      (* Re-monitor: an ejected slot whose counter moves again hosts
         a live thread after all (a stall outlasting grace, or a
         re-attach into the same slot).  Re-arm instead of leaving
         the slot in a permanent blind spot. *)
      let p = w.progress tid in
      if p <> w.last.(tid) then begin
        w.ejected.(tid) <- false;
        w.stale.(tid) <- 0;
        w.last.(tid) <- p
      end
    end
    else begin
      let p = w.progress tid in
      if w.last.(tid) = min_int then begin
        (* Arm only after the first completed operation. *)
        if p > 0 then w.last.(tid) <- p
      end
      else if p = w.last.(tid) then begin
        w.stale.(tid) <- w.stale.(tid) + 1;
        if w.stale.(tid) >= w.grace then begin
          match w.remedy with
          | Eject ->
            w.eject tid;
            Ibr_obs.Probe.ejection ~victim:tid;
            w.ejected.(tid) <- true;
            w.ejections <- w.ejections + 1
          | Neutralize deliver ->
            (* Heal instead of writing off: send the restart signal
               and keep watching.  The stale budget resets so the
               victim gets a full grace window to act on the signal
               before it is delivered again. *)
            deliver tid;
            w.neutralized.(tid) <- true;
            w.neutralizations <- w.neutralizations + 1;
            w.stale.(tid) <- 0
        end
      end
      else begin
        if w.neutralized.(tid) then begin
          (* The signal worked: the victim restarted and is making
             progress again. *)
          w.neutralized.(tid) <- false;
          w.recovered <- w.recovered + 1
        end;
        w.stale.(tid) <- 0;
        w.last.(tid) <- p
      end
    end
  done

let spawn ~(exec : Runner_intf.exec) ~period ~grace ~threads
    ?(remedy = Eject) ?(active = fun _ -> true) ~progress ~eject () =
  (match remedy with
   | Eject -> ()
   | Neutralize _ -> Runner_intf.require_capability exec "neutralize");
  let w = make ~period ~grace ~threads ~remedy ~active ~progress ~eject in
  exec.spawn_aux (fun () ->
    let rec loop () =
      if exec.aux_running () then begin
        exec.wait period;
        check_round w;
        loop ()
      end
    in
    loop ());
  w
