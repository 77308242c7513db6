(* The repository benchmark.

     circusbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                     [--commit ID] [--tiny] [--inject corrupt-report|bad-echo]

   With [--trace 0] it times the workload with tracing off and prints
   the end-to-end metrics; with [--trace 1] it makes the separate
   traced run and prints the per-layer metrics.  Every run's output is
   checked.  The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   [--tiny] shrinks every workload for the self-test, and [--inject]
   plants a defect the output checks must count as failed.  README.md
   lists the workloads and maps each layer metric to the end-to-end
   metric it should move. *)

module Scenario = World.Scenario
module Causal = Circus_trace.Causal
module Event = Circus_trace.Event

(* An open-loop scenario workload pools the simulated latencies of one
   timed run over [seeds] distinct seeds. *)
type kind =
  | Open_loop of { spec : seed:int -> Scenario.spec; domains : int; seeds : int }
  | Rig

type workload = { wname : string; kind : kind; seed0 : int }

let workloads =
  [ { wname = "fleet_poisson"; kind = Open_loop { spec = World.fleet; domains = 1; seeds = 5 }; seed0 = 2026 };
    { wname = "steady_poisson"; kind = Open_loop { spec = World.steady; domains = 1; seeds = 8 }; seed0 = 77 };
    { wname = "paper_rpc_n3"; kind = Rig; seed0 = 1985 };
    { wname = "steady_poisson_d2"; kind = Open_loop { spec = World.steady; domains = 2; seeds = 8 }; seed0 = 77 } ]

(* ------------------------------------------------------------------ *)
(* Command line *)

let flag name =
  let rec scan = function
    | f :: v :: _ when String.equal f name -> Some v
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

let has name = Array.exists (String.equal name) Sys.argv

let usage msg =
  prerr_endline ("circusbench: " ^ msg);
  exit 2

let int_flag name default =
  match flag name with
  | None -> default
  | Some s -> (
    match int_of_string_opt s with Some v -> v | None -> usage (name ^ " expects an integer"))

let tiny = has "--tiny"
let inject = flag "--inject"

(* ------------------------------------------------------------------ *)
(* Statistics *)

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted and n = List.length sorted in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank quantile. *)
let quantile arr q =
  let n = Array.length arr in
  if n = 0 then 0.0
  else begin
    let a = Array.copy arr in
    Array.sort Float.compare a;
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. Float.of_int n)) - 1)))
  end

(* The wall-clock figure of a run's repeats.  On a shared host,
   interference only ever adds time, and it comes in phases of seconds
   to minutes, so the median of a run moves with the share of it spent
   in a slow phase.  The fastest tenth (nearest rank: the second
   fastest of 11 to 20 repeats) reads the program's own cost whenever
   the run saw any quiet spell, and still ignores a lone fast outlier. *)
let fast_tenth xs = quantile (Array.of_list xs) 0.1

let ratio a b = if b = 0.0 then 0.0 else a /. b
let per a b = ratio (Float.of_int a) (Float.of_int b)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Results *)

type metric = { name : string; unit_ : string; value : float; samples : int }

let metric ?(samples = 1) name unit_ value = { name; unit_; value; samples }

(* Requests attempted and failed over every checked run, and the
   problems the output checks found. *)
type outcome = { mutable attempted : int; mutable failed : int; mutable problems : string list }

let outcome () = { attempted = 0; failed = 0; problems = [] }

(* A run that fails its output check counts all its requests as failed. *)
let account o ~requests ~failed problems =
  o.attempted <- o.attempted + requests;
  o.failed <- o.failed + (if problems = [] then failed else requests);
  o.problems <- o.problems @ problems

let mib words = Float.of_int (words * (Sys.word_size / 8)) /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Scenario workloads *)

let trace_capacity = 1 lsl 19

(* The self-test's planted defect: one report rewritten after the run. *)
let corrupt json =
  match World.find json "\"completed\":" with
  | Some i -> String.sub json 0 i ^ "1" ^ String.sub json i (String.length json - i)
  | None -> json ^ " "

(* One checked run.  [reference] holds the report every run of [spec]
   must reproduce: the first run's at one domain, or a separate
   one-domain run's when [domains > 1]. *)
let checked_run o ~reference ~domains ?(corrupted = false) spec =
  let expected =
    match Hashtbl.find_opt reference spec with
    | Some j -> Some j
    | None when domains = 1 -> None
    | None ->
      let j = Scenario.report_json spec (Scenario.run spec) in
      Hashtbl.replace reference spec j;
      Some j
  in
  Gc.full_major ();
  match timed (fun () -> Scenario.run ~domains spec) with
  | r, wall ->
    let json = Scenario.report_json spec r in
    let json = if corrupted then corrupt json else json in
    let reference =
      match expected with
      | Some j -> j
      | None ->
        Hashtbl.replace reference spec json;
        json
    in
    account o ~requests:r.Scenario.arrivals ~failed:(r.Scenario.failed + r.Scenario.unserved)
      (World.problems ~reference json);
    Printf.printf "run seed=%d duration=%g domains=%d wall=%.4fs arrivals=%d failed=%d unserved=%d\n%!"
      spec.Scenario.seed spec.Scenario.duration domains wall r.Scenario.arrivals
      r.Scenario.failed r.Scenario.unserved;
    Some (r, wall)
  | exception e ->
    let requests =
      match Option.bind expected (fun j -> World.int_field j "arrivals") with
      | Some a -> a
      | None ->
        max 1 (int_of_float (Scenario.offered_rate spec *. spec.Scenario.duration))
    in
    account o ~requests ~failed:requests [ "run raised " ^ Printexc.to_string e ];
    None

(* Set-up repeats and whole-run repeats, interleaved until the wall
   clock passes [until] so that both sample every phase of the host's
   load.  Set-up gets about a quarter of the time and at most
   [max_setups] repeats; there are at least [min_setups] and [min_full]
   of each.  [full] is numbered from 1; a [None] is not kept. *)
let interleave ~min_setups ~max_setups ~min_full ~until ~setup ~full =
  let keep x acc = Option.fold ~none:acc ~some:(fun x -> x :: acc) x in
  let rec go ns nf in_setup in_full setups fulls =
    let now = Unix.gettimeofday () in
    if ns >= min_setups && nf >= min_full && now >= until then (List.rev setups, List.rev fulls)
    else if ns < max_setups && (in_setup < in_full /. 3.0 || (nf >= min_full && ns < min_setups))
    then begin
      let x = setup () in
      go (ns + 1) nf (in_setup +. Unix.gettimeofday () -. now) in_full (keep x setups) fulls
    end
    else begin
      let x = full (nf + 1) in
      go ns (nf + 1) in_setup (in_full +. Unix.gettimeofday () -. now) setups (keep x fulls)
    end
  in
  go 0 0 0.0 0.0 [] []

(* Run [k] of a workload draws its inputs from [derive seed k]; run 0
   uses the given seed itself. *)
let derive seed k = seed + (1000 * k)

(* The peak heap of the first run, read before any other run: a
   function of the seed alone.  (The peak over all of a run's seeds
   spread three times as much from one run to the next.) *)
let peak_heap () = mib (Gc.quick_stat ()).Gc.top_heap_words

(* The timed runs: [seeds] runs with distinct seeds, whose latencies are
   pooled, then repeats of them until [seconds] have passed, interleaved
   with three to a hundred set-up runs.  Each repeat must reproduce, byte
   for byte, the report of the first run with its seed. *)
let timed_scenario o ~spec ~domains ~seconds ~seeds =
  let start = Unix.gettimeofday () in
  let reference = Hashtbl.create 16 in
  let full n =
    let spec = { spec with Scenario.seed = derive spec.Scenario.seed (n mod seeds) } in
    let corrupted = n = seeds && inject = Some "corrupt-report" in
    Option.map (fun (r, w) -> (n, r, w)) (checked_run o ~reference ~domains ~corrupted spec)
  in
  let first = Option.to_list (full 0) in
  let peak = peak_heap () in
  let setups, runs =
    interleave ~min_setups:3 ~max_setups:100 ~min_full:seeds ~until:(start +. seconds)
      ~setup:(fun () -> checked_run o ~reference ~domains (World.setup spec))
      ~full
  in
  let runs = first @ runs in
  let latency = Circus_trace.Metrics.create () in
  List.iter
    (fun (n, r, _) -> if n < seeds then Circus_trace.Metrics.merge ~into:latency r.Scenario.metrics)
    runs;
  let q p =
    1e3 *. Option.value (Circus_trace.Metrics.quantile latency "scenario.latency" p) ~default:0.0
  in
  let samples =
    Option.fold ~none:0 ~some:(fun h -> h.Circus_trace.Metrics.count)
      (Circus_trace.Metrics.histogram latency "scenario.latency")
  in
  let wall = fast_tenth (List.map (fun (_, _, w) -> w) runs) in
  (* Requests completed by one run, averaged over the distinct seeds: the
     rate is then that of [wall], not of whichever seed ran fastest. *)
  let completed =
    let firsts = List.filter (fun (n, _, _) -> n < seeds) runs in
    ratio
      (Float.of_int (List.fold_left (fun acc (_, r, _) -> acc + r.Scenario.completed) 0 firsts))
      (Float.of_int (List.length firsts))
  in
  [ metric "wall_s" "s" wall ~samples:(List.length runs);
    metric "setup_s" "s" (fast_tenth (List.map snd setups)) ~samples:(List.length setups);
    metric "req_per_wall_s" "1/s" (ratio completed wall) ~samples:(List.length runs);
    metric "sim_p50_ms" "ms" (q 0.5) ~samples;
    metric "sim_p90_ms" "ms" (q 0.9) ~samples;
    metric "sim_p99_ms" "ms" (q 0.99) ~samples;
    metric "peak_heap_mb" "MiB" peak ]

(* Trace events of the traffic phase, counted by "cat.name". *)
let count_events ~from events =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (e : Event.t) ->
      if e.Event.time >= from then begin
        let k =
          e.Event.cat ^ "." ^ e.Event.name
          ^ match e.Event.phase with Event.Begin -> ".begin" | Event.End -> ".end" | _ -> ""
        in
        Hashtbl.replace counts k (1 + Option.value (Hashtbl.find_opt counts k) ~default:0)
      end)
    events;
  counts

let count counts k = Option.value (Hashtbl.find_opt counts k) ~default:0

let stage_ms a stage q =
  let i =
    let rec find i = if String.equal Causal.stage_names.(i) stage then i else find (i + 1) in
    find 0
  in
  1e3 *. Causal.stage_quantile a ~stage:i q

(* Per-layer metrics of the traced run that both kinds share. *)
let trace_metrics ~requests ~counts ~analysis ~analyze_s ~dropped ~overhead =
  (* Every segment transmission logs a pairmsg seg_send; a retransmission
     also logs a causal rexmit step, since all requests carry a context. *)
  let sends = count counts "pairmsg.seg_send" and rexmits = count counts "causal.rexmit" in
  [ metric "rpc.collate_wait_ms.p50" "ms" (stage_ms analysis "collate_wait" 0.5);
    metric "pairmsg.retransmits_per_req" "count/req" (per rexmits requests);
    metric "pairmsg.first_send_ratio" "ratio" (per (sends - rexmits) sends);
    metric "pairmsg.rexmit_stall_ms.p99" "ms" (stage_ms analysis "rexmit_stall" 0.99);
    metric "net.network_ms.p50" "ms" (stage_ms analysis "network" 0.5);
    metric "sim.fiber_blocks_per_req" "count/req" (per (count counts "fiber.block") requests);
    metric "trace.overhead_ratio" "ratio" overhead;
    metric "trace.dropped" "count" (Float.of_int dropped);
    metric "trace.analyze_s" "s" analyze_s ]

let gc_delta f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  (r, g1.Gc.minor_words -. g0.Gc.minor_words, g1.Gc.major_collections - g0.Gc.major_collections)

let traced_scenario o ~spec ~domains ~with_d2 =
  let reference = Hashtbl.create 4 in
  let place_s, place_calls, misplaced = World.replay_layout spec in
  if misplaced > 0 then o.problems <- o.problems @ [ Printf.sprintf "%d troupes misplaced" misplaced ];
  let setup, setup_words, _ =
    gc_delta (fun () -> checked_run o ~reference ~domains (World.setup spec))
  in
  let full, full_words, full_majors =
    gc_delta (fun () -> checked_run o ~reference ~domains spec)
  in
  let window = { spec with Scenario.duration = (if tiny then 0.5 else 2.0) } in
  let plain = checked_run o ~reference ~domains window in
  Gc.full_major ();
  let traced, traced_wall =
    timed (fun () ->
        Scenario.run ~domains ~tracing:true ~causal:true ~trace_capacity window)
  in
  (* Tracing must not perturb the simulation it observes. *)
  (match plain with
  | Some (p, _) when p.Scenario.events_executed = traced.Scenario.events_executed
                     && p.Scenario.completed = traced.Scenario.completed -> ()
  | _ -> o.problems <- o.problems @ [ "the traced run differs from the untraced one" ]);
  let analysis, analyze_s = timed (fun () -> Causal.analyze traced.Scenario.trace_events) in
  let counts = count_events ~from:spec.Scenario.warmup traced.Scenario.trace_events in
  let requests = traced.Scenario.arrivals in
  let diff f =
    match (setup, full) with
    | Some (s, _), Some (r, _) -> f r -. f s
    | _ -> 0.0
  in
  let d_arrivals = diff (fun r -> Float.of_int r.Scenario.arrivals) in
  let per_req f = ratio (diff f) d_arrivals in
  let full_wall, full_report =
    match full with Some (r, w) -> (w, Some r) | None -> (0.0, None)
  in
  (* The Parallel layer: the same world at two domains must reproduce
     the one-domain report; its wall against the one-domain wall is the
     speed-up. *)
  let speedup, mismatches =
    if not with_d2 then (0.0, 0)
    else begin
      let expected = Option.map (Scenario.report_json spec) full_report in
      let pairs =
        List.init (if tiny then 1 else 2) (fun _ ->
            let d1 = Option.map snd (checked_run o ~reference ~domains:1 spec) in
            Gc.full_major ();
            match timed (fun () -> Scenario.run ~domains:2 spec) with
            | r, w -> (d1, Some w, Some (Scenario.report_json spec r) <> expected)
            | exception _ -> (d1, None, true))
      in
      let walls f = median (List.filter_map f pairs) in
      ( ratio (walls (fun (a, _, _) -> a)) (walls (fun (_, b, _) -> b)),
        List.length (List.filter (fun (_, _, m) -> m) pairs) )
    end
  in
  let metrics =
    [ metric "scenario.place_s" "s" place_s;
      metric "scenario.place_calls" "count" (Float.of_int place_calls);
      metric "scenario.queue_ms.p50" "ms" (stage_ms analysis "queue" 0.5);
      metric "scenario.queue_ms.p99" "ms" (stage_ms analysis "queue" 0.99);
      metric "binding.lookup_ms.p99" "ms" (stage_ms analysis "lookup" 0.99);
      metric "binding.reg_failed" "count"
        (Option.fold ~none:0.0
           ~some:(fun r ->
             Float.of_int (Circus_trace.Metrics.counter r.Scenario.metrics "scenario.reg_failed"))
           full_report);
      metric "rpc.call_wall_us.p50" "us" 0.0;
      metric "rpc.call_wall_us.p99" "us" 0.0;
      metric "rpc.call_wall_drift" "ratio" 0.0;
      metric "rpc.executions_per_call" "count/req" (per (count counts "rpc.execute.end") requests);
      metric "net.datagrams_per_req" "count/req"
        (per_req (fun r -> Float.of_int r.Scenario.net_sent));
      metric "net.dropped" "count"
        (Option.fold ~none:0.0 ~some:(fun r -> Float.of_int r.Scenario.net_dropped) full_report);
      metric "net.bytes_per_call" "B/req" 0.0;
      metric "syscall.sendmsg_per_call" "count/req" 0.0;
      metric "syscall.cpu_ms_per_call" "ms/req" 0.0;
      metric "sim.latency_p99_ms" "ms"
        (Option.fold ~none:0.0 ~some:(fun r -> 1e3 *. r.Scenario.p99) full_report)
        ~samples:(Option.fold ~none:0 ~some:(fun r -> r.Scenario.completed) full_report);
      metric "sim.events_per_req" "count/req"
        (per_req (fun r -> Float.of_int r.Scenario.events_executed));
      metric "sim.wall_ns_per_event" "ns"
        (Option.fold ~none:0.0
           ~some:(fun r -> 1e9 *. ratio full_wall (Float.of_int r.Scenario.events_executed))
           full_report);
      metric "parallel.speedup_d2" "ratio" speedup;
      metric "parallel.report_mismatches" "count" (Float.of_int mismatches);
      metric "gc.minor_words_per_req" "words/req"
        (ratio (full_words -. setup_words) d_arrivals);
      metric "gc.major_collections" "count" (Float.of_int full_majors) ]
    @ trace_metrics ~requests ~counts ~analysis ~analyze_s
        ~dropped:traced.Scenario.trace_dropped
        ~overhead:
          (match plain with Some (_, w) -> ratio traced_wall w | None -> 0.0)
  in
  (metrics, counts, requests)

(* ------------------------------------------------------------------ *)
(* The RPC rig *)

let rig_calls = 20_000
let rig_traced_calls = 1_000

let rig_fault () =
  match inject with
  | Some "bad-echo" -> Rig.Bad_echo 7
  | _ -> Rig.No_fault

let checked_rig o ?trace_capacity ~seed ~calls () =
  Gc.full_major ();
  let r = Rig.run ~fault:(rig_fault ()) ?trace_capacity ~seed ~calls () in
  account o ~requests:calls ~failed:(calls - r.Rig.ok) (Rig.problems r);
  if calls > 0 then
    Printf.printf "run seed=%d calls=%d wall=%.4fs ok=%d\n%!" seed calls r.Rig.wall r.Rig.ok;
  r

let timed_rig o ~seed ~seconds =
  let start = Unix.gettimeofday () in
  let calls = if tiny then 50 else rig_calls in
  let first = checked_rig o ~seed ~calls () in
  let peak = peak_heap () in
  let setups, runs =
    interleave ~min_setups:5 ~max_setups:100 ~min_full:(if tiny then 1 else 2)
      ~until:(start +. seconds)
      ~setup:(fun () -> Some (checked_rig o ~seed ~calls:0 ()).Rig.wall)
      ~full:(fun _ -> Some (checked_rig o ~seed ~calls ()))
  in
  let runs = first :: runs in
  let walls = List.map (fun r -> r.Rig.wall) runs in
  let lat = first.Rig.sim_latency in
  let wall = fast_tenth walls in
  [ metric "wall_s" "s" wall ~samples:(List.length walls);
    metric "setup_s" "s" (fast_tenth setups) ~samples:(List.length setups);
    metric "req_per_wall_s" "1/s" (ratio (Float.of_int calls) wall) ~samples:(List.length runs);
    metric "sim_p50_ms" "ms" (1e3 *. quantile lat 0.5) ~samples:(Array.length lat);
    metric "sim_p90_ms" "ms" (1e3 *. quantile lat 0.9) ~samples:(Array.length lat);
    metric "sim_p99_ms" "ms" (1e3 *. quantile lat 0.99) ~samples:(Array.length lat);
    metric "peak_heap_mb" "MiB" peak ]

let traced_rig o ~seed =
  let calls = if tiny then 50 else rig_calls in
  let setup, setup_words, _ = gc_delta (fun () -> checked_rig o ~seed ~calls:0 ()) in
  let full, full_words, full_majors = gc_delta (fun () -> checked_rig o ~seed ~calls ()) in
  let short = if tiny then 50 else rig_traced_calls in
  let plain = checked_rig o ~seed ~calls:short () in
  let traced = checked_rig o ~trace_capacity ~seed ~calls:short () in
  let events, dropped = Option.value traced.Rig.trace ~default:([], 0) in
  if plain.Rig.events <> traced.Rig.events || plain.Rig.sim_latency <> traced.Rig.sim_latency then
    o.problems <- o.problems @ [ "the traced run differs from the untraced one" ];
  let analysis, analyze_s = timed (fun () -> Causal.analyze events) in
  let counts = count_events ~from:0.0 events in
  (* Drift compares the mean call wall time of the last tenth of the
     run with the first tenth: the growth sits in a minority of slow
     calls, which a median would not see. *)
  let tenth = max 1 (calls / 10) in
  let slice lo = Array.fold_left ( +. ) 0.0 (Array.sub full.Rig.call_wall lo tenth) in
  let us = Array.map (fun w -> 1e6 *. w) full.Rig.call_wall in
  let metrics =
    [ metric "scenario.place_s" "s" 0.0;
      metric "scenario.place_calls" "count" 0.0;
      metric "scenario.queue_ms.p50" "ms" 0.0;
      metric "scenario.queue_ms.p99" "ms" 0.0;
      metric "binding.lookup_ms.p99" "ms" 0.0;
      metric "binding.reg_failed" "count" 0.0;
      metric "rpc.call_wall_us.p50" "us" (quantile us 0.5) ~samples:calls;
      metric "rpc.call_wall_us.p99" "us" (quantile us 0.99) ~samples:calls;
      metric "rpc.call_wall_drift" "ratio"
        (ratio (slice (calls - tenth)) (slice 0))
        ~samples:calls;
      metric "rpc.executions_per_call" "count/req"
        (per (Array.fold_left ( + ) 0 full.Rig.executions - (Rig.members * Rig.warmup_calls)) calls);
      metric "net.datagrams_per_req" "count/req" (per full.Rig.datagrams calls);
      metric "net.dropped" "count" (Float.of_int full.Rig.dropped);
      metric "net.bytes_per_call" "B/req" (per full.Rig.bytes calls);
      metric "syscall.sendmsg_per_call" "count/req" (per full.Rig.sendmsg calls);
      metric "syscall.cpu_ms_per_call" "ms/req" (1e3 *. full.Rig.cpu /. Float.of_int calls);
      metric "sim.latency_p99_ms" "ms" (1e3 *. quantile full.Rig.sim_latency 0.99) ~samples:calls;
      metric "sim.events_per_req" "count/req" (per (full.Rig.events - setup.Rig.events) calls);
      metric "sim.wall_ns_per_event" "ns" (1e9 *. full.Rig.wall /. Float.of_int full.Rig.events);
      metric "parallel.speedup_d2" "ratio" 0.0;
      metric "parallel.report_mismatches" "count" 0.0;
      metric "gc.minor_words_per_req" "words/req" ((full_words -. setup_words) /. Float.of_int calls);
      metric "gc.major_collections" "count" (Float.of_int full_majors) ]
    @ trace_metrics ~requests:short ~counts ~analysis ~analyze_s ~dropped
        ~overhead:(ratio traced.Rig.wall plain.Rig.wall)
  in
  (metrics, counts, short)

(* ------------------------------------------------------------------ *)
(* Output *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result o metrics =
  Printf.printf "%-30s %18s  %-10s %8s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun m -> Printf.printf "%-30s %18.6f  %-10s %8d\n" m.name m.value m.unit_ m.samples)
    metrics;
  List.iter (fun p -> Printf.printf "check failed: %s\n" p) o.problems;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (o.problems = [] && o.attempted > 0)
    (max 1 o.attempted) o.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
          metrics))

let print_counts counts requests =
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) counts []) in
  Printf.printf "firehose events per request over %d requests:\n" requests;
  List.iter
    (fun k -> Printf.printf "  %-36s %12.3f\n" k (per (count counts k) requests))
    keys

let () =
  let name = match flag "--workload" with Some n -> n | None -> usage "--workload is required" in
  let w =
    match List.find_opt (fun w -> String.equal w.wname name) workloads with
    | Some w -> w
    | None ->
      usage
        (Printf.sprintf "unknown workload %s (known: %s)" name
           (String.concat ", " (List.map (fun w -> w.wname) workloads)))
  in
  let seed = int_flag "--seed" w.seed0 in
  let seconds = Float.of_int (int_flag "--seconds" 30) in
  let trace = int_flag "--trace" 0 in
  if trace <> 0 && trace <> 1 then usage "--trace expects 0 or 1";
  Printf.printf
    "# circusbench workload=%s seed=%d seconds=%g trace=%d tiny=%b nproc=%d ocaml=%s commit=%s\n%!"
    name seed seconds trace tiny
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Option.value (flag "--commit") ~default:"unknown");
  let o = outcome () in
  let metrics =
    try
      match (w.kind, trace) with
      | Open_loop f, _ ->
        let spec =
          let s = f.spec ~seed in
          if tiny then
            { s with
              Scenario.troupes = min s.Scenario.troupes 12;
              hosts = min s.Scenario.hosts 200;
              duration = 1.0 }
          else s
        in
        if trace = 0 then
          timed_scenario o ~spec ~domains:f.domains ~seconds ~seeds:(if tiny then 2 else f.seeds)
        else begin
          let m, counts, requests =
            traced_scenario o ~spec ~domains:f.domains
              ~with_d2:(String.equal w.wname "steady_poisson")
          in
          print_counts counts requests;
          m
        end
      | Rig, 0 -> timed_rig o ~seed ~seconds
      | Rig, _ ->
        let m, counts, requests = traced_rig o ~seed in
        print_counts counts requests;
        m
    with e ->
      o.problems <- o.problems @ [ "the benchmark raised " ^ Printexc.to_string e ];
      o.failed <- o.attempted;
      []
  in
  let metrics =
    if trace = 0 then
      metrics
      @ [ metric "served_share" "ratio"
            (1.0 -. per o.failed (max 1 o.attempted))
            ~samples:o.attempted ]
    else metrics
  in
  print_result o metrics
