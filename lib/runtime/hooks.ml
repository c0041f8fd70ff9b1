(* Bridge between reclamation/data-structure code and the execution
   backend.

   Tracker and data-structure code is written once and runs under two
   backends:
   - the discrete-event simulator ([Sched]), where every shared-memory
     primitive must charge its cost and offer a preemption point; and
   - real OCaml domains, where primitives execute natively and, unless
     a run needs neutralization rails, no handler is installed at all.

   The handler is domain-local state so that the simulator (which runs
   in one domain) and concurrently running real domains never
   interfere.  Each dispatch through it costs a DLS lookup and a
   closure call, so the hot paths first load [demand], one word that
   says whether anything needs dispatch: while it is zero, every hook
   is the default no-op and callers go straight to the raw operation
   (DESIGN.md §8a). *)

exception Neutralized
(* Raised *into* a victim thread to deliver a neutralization signal
   (DEBRA+): the backend unwinds the victim's current operation so
   [Ds_common.with_op] can drop its reservations, re-protect, and
   retry from scratch.  On the simulator the scheduler discontinues
   the victim's continuation at its next resumption; on domains the
   guard path polls a per-slot flag ([poll_neutralize]) and raises.
   Delivery is gated on the victim's restart window (below), so the
   signal never lands after an operation's linearization point. *)

type handler = {
  step : int -> unit;        (* charge [cost] cycles; may deschedule *)
  current_tid : unit -> int; (* logical thread id of the caller *)
  now : unit -> int;         (* caller's elapsed virtual time (cycles) *)
  global_now : unit -> int;  (* machine-wide event-order timestamp *)
  restart_window : bool -> bool;
  (* Open/close the caller's restart window; returns the previous
     state.  [Neutralized] may only be delivered while the window is
     open; [Ds_common.with_op] opens it around each restartable
     attempt and masks it across linearization points. *)
  poll_neutralize : unit -> unit;
  (* Guard-path poll (domains backend): raise [Neutralized] if a
     pending signal exists and the window is open.  No-op on the
     simulator, which delivers at resumption instead. *)
}

let default =
  { step = (fun _ -> ()); current_tid = (fun () -> 0); now = (fun () -> 0);
    global_now = (fun () -> 0); restart_window = (fun _ -> false);
    poll_neutralize = (fun () -> ()) }

let key : handler Domain.DLS.key = Domain.DLS.new_key (fun () -> default)

type demand = int Atomic.t

(* Two per open [with_handler] frame on any domain, plus one while
   [Ibr_obs.Probe] attributes cost to primitives.  A domain that
   installed a handler sees its own increment, so zero proves the
   caller's handler is [default] and nobody counts charges. *)
let demand = Atomic.make 0

let active () = Atomic.get demand <> 0
let installed () = Atomic.get demand lsr 1

let step cost = if active () then (Domain.DLS.get key).step cost

let current_tid () =
  if active () then (Domain.DLS.get key).current_tid () else 0

let now () = if active () then (Domain.DLS.get key).now () else 0

let global_now () =
  if active () then (Domain.DLS.get key).global_now () else 0

let restart_window open_ =
  active () && (Domain.DLS.get key).restart_window open_

let poll_neutralize () =
  if active () then (Domain.DLS.get key).poll_neutralize ()

(* Run [f] with handler [h] installed, restoring the previous handler
   afterwards (exception-safe). *)
let with_handler h f =
  let old = Domain.DLS.get key in
  ignore (Atomic.fetch_and_add demand 2);
  Domain.DLS.set key h;
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set key old;
      ignore (Atomic.fetch_and_add demand (-2)))
    f

(* The observability layer sits below the runtime, so it cannot name
   us; inject its clock and thread-id sources, and have it report
   when cost attribution turns on or off.  Hooks is linked by
   everything, making this the one reliable wiring point. *)
let () =
  Ibr_obs.Probe.set_clock global_now;
  Ibr_obs.Probe.set_tid current_tid;
  Ibr_obs.Probe.set_attribution_listener (fun on ->
    ignore (Atomic.fetch_and_add demand (if on then 1 else -1)))
