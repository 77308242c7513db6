(* Conservative parallel discrete-event simulation across OCaml 5
   domains.

   The world is sharded into K logical processes, each a complete
   sequential engine with its own trace sink.  Execution proceeds in
   windows [W, W + L) where L is the *lookahead*: a lower bound on
   cross-LP message latency guaranteed by the caller (for the network
   layer, the minimum propagation delay).  Within a window every LP runs
   independently — any message it sends cannot arrive before the next
   barrier at W + L, so nothing an LP does in the window can affect
   another LP's events inside it.  A message posted during a window
   waits in its source LP's outbox.  At the barrier, once every domain
   has finished the window, the coordinator alone drains the outboxes
   (ascending source LP, FIFO within an outbox) into the destination
   engines; the next window then starts at the minimum next-event time
   across LPs, so idle stretches are skipped in one hop.

   Determinism.  K is a property of the workload, never of the machine:
   [domains d] only chooses how the K LPs are mapped onto d domains
   (LP i runs on domain [i mod d], always the same one).  The window
   schedule, each LP's event order, and the barrier drain order are
   all functions of the LPs' (deterministic) local state — nothing
   observes d.  Equal seeds therefore produce byte-identical traces at
   any domain count, which CI enforces with a cmp.  Cross-LP ordering
   is the pure function described in DESIGN.md: events sort by
   (time, lp-id, per-LP seq), and an arrival posted in window r obtains
   its receiver-side seq at barrier r, after every LP has finished
   window r and before anything at its instant runs (Engine.run_window's
   bound is exclusive for exactly this reason).

   Why conservative rather than optimistic (Time Warp-style rollback):
   the engine executes arbitrary OCaml closures with side effects
   (traces, metrics, user state), which cannot be checkpointed or
   rolled back; the paper-model network has a hard propagation floor
   that makes lookahead cheap to derive; and determinism — the repo's
   core testing oracle — is trivial under a fixed barrier schedule but
   subtle under speculative execution.

   K = 1 degrades to a direct Engine.run on the caller's domain: no
   windows, no barriers, no outboxes — byte-identical to the
   sequential engine. *)

module Trace = Circus_trace.Trace

(* The sim library's own [Condition] is the fiber-level one; the team
   barrier needs the stdlib domain-level primitive. *)
module Cond = Stdlib.Condition
module Event = Circus_trace.Event

(* A logical process: one shard of the world.  LPs never share
   mutable simulation state; the only cross-LP traffic is [post]. *)
type lp = { engine : Engine.t; mutable sink : Trace.sink option; mutable executed : int }

type t = {
  lps : lp array;
  lookahead : float;
  (* outboxes.(src): (dst, arrival, thunk) posted by LP src this round,
     newest first.  Written during a round only by src's domain; read
     and emptied only by the coordinator at the barrier, after every
     domain has passed through the team mutex. *)
  outboxes : (int * float * (unit -> unit)) list array;
  (* Per-LP next-event time, published by the owning domain at the end
     of each round and lowered by the barrier drain; read by the
     coordinator at barriers. *)
  next_times : float array;
  (* The current window's barrier instant.  A cross-LP message must
     arrive at or after it — violating this would mean the receiver
     already ran past the arrival time.  Written by the coordinator
     before releasing a round, constant during it. *)
  mutable cur_limit : float;
  mutable tracing : bool;
}

(* Each LP's engine seed is the first draw of [Prng.stream root
   ~index:i], so the whole LP is a pure function of (root seed, lp id),
   whatever the LP count or the domain map. *)
let create ?(seed = 42) ~lps ~lookahead () =
  if lps < 1 then invalid_arg "Parallel.create: lps < 1";
  if not (lookahead > 0.0) then invalid_arg "Parallel.create: lookahead must be positive";
  let root = Prng.create seed in
  let make i =
    let seed = Int64.to_int (Prng.int64 (Prng.stream root ~index:i)) land max_int in
    { engine = Engine.create ~seed (); sink = None; executed = 0 }
  in
  { lps = Array.init lps make;
    lookahead;
    outboxes = Array.make lps [];
    next_times = Array.make lps 0.0;
    cur_limit = neg_infinity;
    tracing = false }

let engine t i = t.lps.(i).engine
let executed t = Array.fold_left (fun acc l -> acc + l.executed) 0 t.lps
let now t = Array.fold_left (fun acc l -> Float.max acc (Engine.now l.engine)) 0.0 t.lps

let enable_tracing ?capacity ?quiet ?causal t =
  t.tracing <- true;
  Array.iter
    (fun l ->
      let engine = l.engine in
      l.sink <-
        Some (Trace.make_sink ?capacity ?quiet ?causal ~clock:(fun () -> Engine.now engine) ()))
    t.lps

let with_lp t i f =
  let saved = Trace.active () in
  Trace.use t.lps.(i).sink;
  Fun.protect ~finally:(fun () -> Trace.use saved) f

let post t ~src ~dst ~at thunk =
  if src = dst then invalid_arg "Parallel.post: src = dst (schedule locally instead)";
  if at < t.cur_limit then
    invalid_arg
      (Printf.sprintf
         "Parallel.post: lookahead violation (lp %d -> lp %d arriving at %g, barrier at %g)" src
         dst at t.cur_limit);
  t.outboxes.(src) <- (dst, at, thunk) :: t.outboxes.(src)

(* ------------------------------------------------------------------ *)
(* Rounds *)

(* One domain's share of a round: [owned] lists its LP ids.  [final] is
   the inclusive last pass of a [run ~until]: events at exactly [limit]
   execute (Engine.run's semantics); in a regular window they wait for
   the barrier at [limit]. *)
let run_round t ~owned ~limit ~final =
  Array.iter
    (fun i ->
      let l = t.lps.(i) in
      Trace.use l.sink;
      let n =
        if final then Engine.run_counted ~until:limit l.engine
        else Engine.run_window l.engine ~limit
      in
      l.executed <- l.executed + n;
      t.next_times.(i) <- Engine.next_time l.engine)
    owned

(* The barrier drain, on the coordinator while no round is running:
   ascending source LP, FIFO within an outbox.  Together with each
   engine's seq counter this fixes the cross-LP interleaving
   independently of the domain count. *)
let drain t =
  Array.iteri
    (fun src box ->
      if box <> [] then begin
        t.outboxes.(src) <- [];
        List.iter
          (fun (dst, at, thunk) ->
            ignore (Engine.schedule_abs t.lps.(dst).engine ~at thunk);
            if at < t.next_times.(dst) then t.next_times.(dst) <- at)
          (List.rev box)
      end)
    t.outboxes

let window_start t = Array.fold_left Float.min infinity t.next_times

(* ------------------------------------------------------------------ *)
(* The domain team.  Workers park on [cv_start] between rounds; the
   coordinator (the calling domain, which owns its own share of LPs)
   bumps [round] to release them and waits on [cv_done] until every
   worker has finished the round.  Blocking waits, never spins: on a
   machine with fewer cores than domains a spin barrier would starve
   the very workers it waits for. *)

type team = {
  m : Mutex.t;
  cv_start : Cond.t;
  cv_done : Cond.t;
  mutable round : int;  (* generation counter; -1 = shutdown *)
  mutable limit : float;
  mutable final : bool;
  mutable done_count : int;
  mutable error : exn option;  (* first failure, re-raised by the coordinator *)
}

let record_error team e =
  Mutex.lock team.m;
  (match team.error with None -> team.error <- Some e | Some _ -> ());
  Mutex.unlock team.m

let worker t team owned () =
  let last = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock team.m;
    while team.round = !last do
      Cond.wait team.cv_start team.m
    done;
    let r = team.round and limit = team.limit and final = team.final in
    Mutex.unlock team.m;
    if r < 0 then running := false
    else begin
      last := r;
      (try run_round t ~owned ~limit ~final with e -> record_error team e);
      Mutex.lock team.m;
      team.done_count <- team.done_count + 1;
      Cond.signal team.cv_done;
      Mutex.unlock team.m
    end
  done;
  Trace.use None

let coordinate t team ~own ~workers ~limit ~final =
  t.cur_limit <- limit;
  Mutex.lock team.m;
  team.round <- team.round + 1;
  team.limit <- limit;
  team.final <- final;
  team.done_count <- 0;
  Cond.broadcast team.cv_start;
  Mutex.unlock team.m;
  (try run_round t ~owned:own ~limit ~final with e -> record_error team e);
  Mutex.lock team.m;
  while team.done_count < workers do
    Cond.wait team.cv_done team.m
  done;
  Mutex.unlock team.m;
  drain t

let shutdown team handles =
  Mutex.lock team.m;
  team.round <- -1;
  Cond.broadcast team.cv_start;
  Mutex.unlock team.m;
  List.iter Domain.join handles

(* ------------------------------------------------------------------ *)

let run ?until ?(max_events = 50_000_000) ?(domains = 1) t =
  let k = Array.length t.lps in
  let saved = Trace.active () in
  Fun.protect ~finally:(fun () -> Trace.use saved) @@ fun () ->
  if k = 1 then begin
    (* Sequential fast path: no windows, no barriers, no outboxes
       (post rejects src = dst, so none can hold messages) — the exact
       code path of the single-domain engine. *)
    let l = t.lps.(0) in
    if t.tracing then Trace.use l.sink;
    l.executed <- l.executed + Engine.run_counted ?until ~max_events l.engine
  end
  else begin
    let d = max 1 (min domains k) in
    let base = executed t in
    (* Initial scan on the calling domain, nothing else running yet;
       the drain injects whatever setup code posted before [run]. *)
    for i = 0 to k - 1 do
      t.next_times.(i) <- Engine.next_time t.lps.(i).engine
    done;
    drain t;
    let owned w = Array.of_list (List.filter (fun i -> i mod d = w) (List.init k Fun.id)) in
    let team =
      { m = Mutex.create ();
        cv_start = Cond.create ();
        cv_done = Cond.create ();
        round = 0;
        limit = 0.0;
        final = false;
        done_count = 0;
        error = None }
    in
    let handles = List.init (d - 1) (fun j -> Domain.spawn (worker t team (owned (j + 1)))) in
    let own = owned 0 in
    let workers = d - 1 in
    Fun.protect ~finally:(fun () -> shutdown team handles) @@ fun () ->
    let finished = ref false in
    while not !finished do
      let start = window_start t in
      (match until with
      | None ->
        if start = infinity then finished := true
        else coordinate t team ~own ~workers ~limit:(start +. t.lookahead) ~final:false
      | Some u ->
        if start = infinity || start +. t.lookahead > u then begin
          (* Close enough to the horizon that nothing sent from here on
             can arrive at or before it (arrivals land >= start + L):
             one inclusive pass finishes the run. *)
          coordinate t team ~own ~workers ~limit:u ~final:true;
          finished := true
        end
        else coordinate t team ~own ~workers ~limit:(start +. t.lookahead) ~final:false);
      (match team.error with Some e -> raise e | None -> ());
      if executed t - base > max_events then
        invalid_arg "Parallel.run: max_events exceeded (runaway simulation?)"
    done
  end

(* ------------------------------------------------------------------ *)
(* Deterministic trace merge: concatenate per-LP streams in LP order,
   stable-sort by time (so ties resolve by lp-id, then by per-LP seq —
   the (time, seq, lp-id) total order), and renumber seq. *)

let merged_events t =
  let all =
    List.concat_map
      (fun l -> match l.sink with Some s -> Trace.sink_events s | None -> [])
      (Array.to_list t.lps)
  in
  let sorted =
    List.stable_sort (fun (a : Event.t) (b : Event.t) -> Float.compare a.time b.time) all
  in
  List.mapi
    (fun i (e : Event.t) ->
      Event.make ~seq:i ~time:e.time ~cat:e.cat ~name:e.name ~phase:e.phase ~host:e.host
        ~fiber:e.fiber ~args:e.args)
    sorted

let merged_dropped t =
  Array.fold_left
    (fun acc l -> match l.sink with Some s -> acc + Trace.sink_dropped s | None -> acc)
    0 t.lps
