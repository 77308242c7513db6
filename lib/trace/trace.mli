(** The structured event recorder.

    A {e domain-local} sink receives typed events ({!Event.t}) into a
    fixed-capacity ring buffer.  The sink owns all tracing state: its
    ring, its clock, the [quiet] flag, and the causal state — whether
    {!Causal} sites record, and the per-host id counters they mint
    from.  Each OCaml domain has its own sink slot (the parallel engine
    gives every logical process its own sink, installs it on whichever
    domain runs that LP, and merges the streams deterministically at
    export); single-domain programs see the familiar "one global sink"
    behaviour.  When no sink is installed the recorder costs one
    domain-local load: instrumentation sites must guard emission with
    [if Trace.on () then Trace.emit ...] so argument lists are never
    allocated for a disabled trace.

    Because the simulation engine is deterministic, two runs with equal
    seeds produce identical event streams — the exporters in {!Export}
    render them byte-identically, which CI uses as a regression
    oracle. *)

type sink

val on : unit -> bool
(** True iff a sink is installed on the calling domain and is not
    quiet. *)

val start :
  ?capacity:int -> ?quiet:bool -> ?causal:bool -> clock:(unit -> float) -> unit -> sink
(** Install a fresh sink on the calling domain.  [clock] supplies event
    timestamps — pass the simulation clock, never wall time.
    [capacity] is the ring size in events (default 65536); on overflow
    the oldest events are overwritten and counted in {!dropped}.
    [causal] (default false) turns the {!Causal} sites on.  A [quiet]
    sink (default false) makes {!on} report false: every non-causal
    site is guarded by {!on}, so a quiet causal sink records exactly
    the causal stream. *)

val stop : unit -> unit
val active : unit -> sink option

val make_sink :
  ?capacity:int -> ?quiet:bool -> ?causal:bool -> clock:(unit -> float) -> unit -> sink
(** Build a sink without installing it anywhere — {!start} is
    [make_sink] + {!use}.  The parallel engine creates one per logical
    process and installs it on whichever domain runs that LP. *)

val use : sink option -> unit
(** [use s] sets the calling domain's sink slot directly — [use (Some
    s)] resumes recording into an existing sink, [use None] is
    {!stop}.  The parallel engine uses this to point each worker
    domain at its logical process's sink without creating a fresh
    one. *)

type causal = { mutable on : bool; mutable counts : int array }
(** A sink's causal state, read and written by {!Causal}: whether
    causal sites record into the sink, and its per-host request and
    span id counters. *)

val causal : sink -> causal

(** {1 Emission} *)

val emit :
  ?phase:Event.phase ->
  ?host:int ->
  ?fiber:int ->
  ?args:(string * Event.arg) list ->
  cat:string ->
  string ->
  unit
(** Record one event.  No-op when disabled, but callers on hot paths
    should still guard with {!on} to avoid building [args]. *)

val span_begin :
  ?host:int -> ?fiber:int -> ?args:(string * Event.arg) list -> cat:string -> string -> unit

val span_end :
  ?host:int -> ?fiber:int -> ?args:(string * Event.arg) list -> cat:string -> string -> unit

val span :
  ?host:int ->
  ?fiber:int ->
  ?args:(string * Event.arg) list ->
  cat:string ->
  string ->
  (unit -> 'a) ->
  'a
(** [span ~cat name f] brackets [f ()] with Begin/End events (marking
    the End with [raised=true] if [f] raises).  Runs [f] directly when
    tracing is off. *)

(** {1 Inspection} *)

val events : unit -> Event.t list
(** Recorded events, oldest first; [[]] when no sink is installed. *)

val dropped : unit -> int
val sink_events : sink -> Event.t list
val sink_dropped : sink -> int

(** {1 Trace-based assertions}

    Protocol-level checks over the recorded stream, for tests that want
    to assert what the protocols did ("exactly one commit per troupe
    member", "no delivery after the partition") rather than only the
    end state. *)

module Expect : sig
  exception Failed of string

  val count : ?cat:string -> ?name:string -> ?where:(Event.t -> bool) -> int -> unit
  val at_least : ?cat:string -> ?name:string -> ?where:(Event.t -> bool) -> int -> unit
  val none : ?cat:string -> ?name:string -> ?where:(Event.t -> bool) -> unit -> unit

  val ordered : before:(Event.t -> bool) -> after:(Event.t -> bool) -> unit -> unit
  (** Every [after] event must be preceded by some [before] event. *)

  val follows : before:(Event.t -> bool) -> after:(Event.t -> bool) -> unit -> unit
  (** Causal variant of {!ordered}: every [after] event must be
      preceded by a [before] event carrying the same ["req"] arg
      (request id), as {!Causal} events do. *)

  val well_nested : unit -> unit
  (** Begin/End events balance per (host, fiber) scope. *)
end
