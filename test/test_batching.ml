(* Transport-path tests: byte-identical traces across equal-seed runs
   under loss and duplication (pairmsg and rpc), burst charging
   ([Host.charge_span]) against a hand-written per-charge
   [Host.use_cpu] loop, the [sendmsg_vec] exception contract, the
   sharded cluster at domains {1,2,4} with a chaos plan running, and a
   steady-state allocation budget on the replicated-call hot path. *)

open Circus_sim
open Circus_net
open Circus_pairmsg
open Circus_rpc
module Trace = Circus_trace.Trace
module Export = Circus_trace.Export

(* ------------------------------------------------------------------ *)
(* Equal seeds => byte-identical traces (pairmsg). *)

let run_pairmsg_traced ~seed =
  let engine = Engine.create ~seed () in
  let net = Net.create engine ~params:(Net.lan ~loss:0.1 ~duplication:0.15 ()) () in
  let env = Syscall.make net () in
  let server_host = Net.add_host net ~name:"server" () in
  let client_host = Net.add_host net ~name:"client" () in
  let sink = Trace.start ~clock:(fun () -> Engine.now engine) () in
  let server = Endpoint.create env server_host ~port:50 () in
  Endpoint.serve server (fun ~src:_ body -> body);
  let replies = ref [] in
  ignore
    (Host.spawn client_host (fun () ->
         let ep = Endpoint.create env client_host () in
         for i = 1 to 8 do
           let reply =
             Endpoint.call ep ~dst:(Endpoint.addr server)
               (Bytes.of_string (Printf.sprintf "m%d" i))
           in
           replies := Bytes.to_string reply :: !replies
         done;
         Endpoint.close ep));
  Engine.run engine;
  Trace.stop ();
  (Export.jsonl sink, List.rev !replies)

let prop_pairmsg_trace_deterministic =
  QCheck.Test.make ~name:"equal seeds: pairmsg traces byte-identical" ~count:20
    QCheck.(int_range 1 100_000)
    (fun seed -> run_pairmsg_traced ~seed = run_pairmsg_traced ~seed)

(* ------------------------------------------------------------------ *)
(* Equal seeds => byte-identical traces (rpc). *)

let run_rpc_traced ~seed =
  let engine = Engine.create ~seed () in
  let net = Net.create engine ~params:(Net.lan ~loss:0.05 ~duplication:0.1 ()) () in
  let env = Syscall.make net () in
  let served = ref [] in
  let members =
    List.init 3 (fun i ->
        let h = Net.add_host net ~name:(Printf.sprintf "server%d" i) () in
        let rt = Runtime.create env h ~port:50 () in
        let module_no =
          Runtime.export rt (fun _ctx ~proc_no:_ body ->
              served := Printf.sprintf "s%d:%s" i (Bytes.to_string body) :: !served;
              body)
        in
        Runtime.module_addr rt module_no)
  in
  let troupe = Troupe.make ~id:42L ~members in
  let client_host = Net.add_host net ~name:"client" () in
  let rt = Runtime.create env client_host () in
  let sink = Trace.start ~clock:(fun () -> Engine.now engine) () in
  let replies = ref [] in
  ignore
    (Runtime.spawn_thread rt (fun ctx ->
         for i = 1 to 5 do
           let r =
             Runtime.call_troupe ctx troupe ~proc_no:0 (Bytes.of_string (Printf.sprintf "q%d" i))
           in
           replies := Bytes.to_string r :: !replies
         done));
  Engine.run engine;
  Trace.stop ();
  (Export.jsonl sink, List.rev !replies, List.rev !served)

let prop_rpc_trace_deterministic =
  QCheck.Test.make ~name:"equal seeds: rpc traces byte-identical" ~count:15
    QCheck.(int_range 1 100_000)
    (fun seed -> run_rpc_traced ~seed = run_rpc_traced ~seed)

(* ------------------------------------------------------------------ *)
(* Burst charging against its reference: [Host.charge_span] must be
   observationally identical to the literal per-charge [Host.use_cpu]
   loop written out below — the same trace (charge slices at the same
   instants), the same meter totals, and every hook at the same instant
   — while timer events and a second fiber charging the same host
   compete for the clock and the CPU queue.  Costs, gaps and timer
   delays are multiples of 2^-10 s, so sums are exact and charge ends
   tie with timers and rival charges as often as they miss them. *)

let burst_kinds = [| `User; `Kernel "sendmsg"; `Kernel "gettimeofday" |]

type burst_case = {
  charges : (int * int) list;  (* (index into [burst_kinds], cost ticks) *)
  rival : (int * int) list;  (* second fiber: (sleep ticks, cost ticks) *)
  timers : int list;  (* competing timer delays, ticks *)
  rival_first : bool;  (* spawn order of the two fibers *)
}

let tick = 1.0 /. 1024.0

let burst_case =
  let open QCheck.Gen in
  let gen =
    map4
      (fun charges rival timers rival_first -> { charges; rival; timers; rival_first })
      (list_size (int_range 1 8) (pair (int_bound 2) (int_bound 6)))
      (list_size (int_bound 6) (pair (int_bound 4) (int_bound 6)))
      (list_size (int_bound 8) (int_bound 40))
      bool
  in
  let print c =
    let pairs l = String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) l) in
    Printf.sprintf "charges=[%s] rival=[%s] timers=[%s] rival_first=%b" (pairs c.charges)
      (pairs c.rival)
      (String.concat ";" (List.map string_of_int c.timers))
      c.rival_first
  in
  QCheck.make ~print gen

let run_burst_case ~reference c =
  let engine = Engine.create () in
  let net = Net.create engine () in
  let host = Net.add_host net ~name:"h" () in
  let sink = Trace.start ~clock:(fun () -> Engine.now engine) () in
  let log = ref [] in
  let note tag i = log := (tag, i, Engine.now engine) :: !log in
  List.iteri
    (fun i d ->
      ignore (Engine.schedule engine ~delay:(float_of_int d *. tick) (fun () -> note "timer" i)))
    c.timers;
  let meter = Meter.create () in
  let rival_meter = Meter.create () in
  let charges = Array.of_list c.charges in
  let n = Array.length charges in
  let kind i = burst_kinds.(fst charges.(i)) in
  let cost i = float_of_int (snd charges.(i)) *. tick in
  let before i = note "before" i in
  let after i = note "after" i in
  let burst () =
    if reference then
      for i = 0 to n - 1 do
        before i;
        Host.use_cpu host ~meter ~kind:(kind i) (cost i);
        after i
      done
    else Host.charge_span host ~meter ~n ~before ~kind ~cost ~after ()
  in
  let rival () =
    List.iteri
      (fun i (gap, cost) ->
        Fiber.sleep (float_of_int gap *. tick);
        Host.use_cpu host ~meter:rival_meter ~kind:(`Kernel "select") (float_of_int cost *. tick);
        note "rival" i)
      c.rival
  in
  let fibers = if c.rival_first then [ rival; burst ] else [ burst; rival ] in
  List.iter (fun f -> ignore (Host.spawn host f)) fibers;
  Engine.run engine;
  Trace.stop ();
  let totals m = (Meter.user m, Meter.kernel m, Meter.by_syscall m) in
  (Export.jsonl sink, List.rev !log, totals meter, totals rival_meter, Host.cpu_time host)

let prop_burst_equals_use_cpu_loop =
  QCheck.Test.make ~count:200
    ~name:"burst charging = per-charge loop (use_cpu oracle, rival fiber, timers)" burst_case
    (fun c -> run_burst_case ~reference:false c = run_burst_case ~reference:true c)

(* ------------------------------------------------------------------ *)
(* sendmsg_vec exception contract: a hook that raises at element [i]
   leaves elements [< i] fully charged and injected and element [i]
   onward untouched — never a half-charged segment. *)

(* Zero jitter and zero per-byte time, so the injected copies arrive in
   send order. *)
let zero_jitter = { Net.default_params with jitter_mean = 0.0; per_byte = 0.0 }

let test_sendmsg_vec_before_raise () =
  let engine = Engine.create () in
  let net = Net.create engine ~params:zero_jitter () in
  let env = Syscall.make net () in
  let a = Net.add_host net ~name:"a" () in
  let b = Net.add_host net ~name:"b" () in
  let sa = Net.udp_bind net a ~port:10 () in
  let sb = Net.udp_bind net b ~port:10 () in
  let meter = Meter.create () in
  let user_cost = 0.003 in
  let on_segment_calls = ref [] in
  let raised = ref false in
  ignore
    (Host.spawn a (fun () ->
         try
           Syscall.sendmsg_vec env ~meter
             ~before:(fun i -> if i = 2 then failwith "hook boom")
             ~user_cost
             ~on_segment:(fun i -> on_segment_calls := i :: !on_segment_calls)
             sa ~dst:(Net.socket_addr sb)
             (Array.init 4 (fun i -> Bytes.of_string (string_of_int i)))
         with Failure _ -> raised := true));
  Engine.run engine;
  Alcotest.(check bool) "hook exception propagated" true !raised;
  Alcotest.(check (list int)) "on_segment ran for completed elements only" [ 0; 1 ]
    (List.rev !on_segment_calls);
  let sendmsg_cost = (Syscall.costs env).Syscall.sendmsg in
  Alcotest.(check (float 1e-9)) "kernel time: exactly two sendmsg charges"
    (2.0 *. sendmsg_cost) (Meter.kernel meter);
  Alcotest.(check (float 1e-9)) "user time: exactly two per-segment charges"
    (2.0 *. user_cost) (Meter.user meter);
  let rec drain acc =
    match Mailbox.try_recv (Net.mailbox sb) with
    | Some d -> drain (Bytes.to_string d.Net.payload :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list string)) "elements before the raise were injected, none after"
    [ "0"; "1" ] (drain [])

(* ------------------------------------------------------------------ *)
(* Charging composed with the sharded cluster: the merged trace
   and every client's outcome log must be invariant across domains
   {1,2,4}, with a chaos plan running.  Each seed is run at d1 and then
   twice each at d2 and d4, all compared against the d1 run.  An echo
   server on shard 0 serves pairmsg clients on the three other shards,
   so every call crosses LPs; the plan crashes/bounces one client host
   and throws loss/delay bursts at the rest. *)

module Cluster_plan = Circus_fault.Plan
module Injector = Circus_fault.Injector

let cluster_run ~seed ~domains =
  let params = { (Net.lan ~loss:0.05 ~duplication:0.1 ()) with propagation = 2e-3 } in
  let c = Cluster.create ~seed ~params ~lps:4 () in
  Cluster.enable_tracing c;
  let hosts = Array.init 4 (fun i -> Cluster.add_host c ~name:(Printf.sprintf "h%d" i) ()) in
  let envs = Array.init 4 (fun lp -> Syscall.make (Cluster.net c lp) ()) in
  let server_lp = Cluster.lp_of_host c (Host.id hosts.(0)) in
  let server_addr = ref None in
  Cluster.with_lp c server_lp (fun () ->
      let server = Endpoint.create envs.(server_lp) hosts.(0) ~port:50 () in
      Endpoint.serve server (fun ~src:_ body -> body);
      server_addr := Some (Endpoint.addr server));
  let dst = Option.get !server_addr in
  let logs = Array.make 4 [] in
  for i = 1 to 3 do
    let lp = Cluster.lp_of_host c (Host.id hosts.(i)) in
    Cluster.with_lp c lp (fun () ->
        ignore
          (Host.spawn hosts.(i) (fun () ->
               let ep = Endpoint.create envs.(lp) hosts.(i) () in
               for k = 1 to 24 do
                 (match
                    Endpoint.call ep ~dst (Bytes.of_string (Printf.sprintf "c%d.%d" i k))
                  with
                 | reply -> logs.(i) <- ("ok:" ^ Bytes.to_string reply) :: logs.(i)
                 | exception Fiber.Cancelled -> raise Fiber.Cancelled
                 | exception _ -> logs.(i) <- Printf.sprintf "fail:%d" k :: logs.(i));
                 Fiber.sleep 0.2
               done)))
  done;
  let plan =
    Cluster_plan.random ~seed:(seed lxor 0x5A5A)
      ~victims:[ Host.id hosts.(2) ]
      ~others:[ Host.id hosts.(0); Host.id hosts.(1); Host.id hosts.(3) ]
      ~horizon:5.0 ()
  in
  Injector.inject_cluster c plan;
  Cluster.run ~until:6.5 ~domains c;
  let trace = Export.jsonl_events (Cluster.merged_events c) in
  (trace, Array.map List.rev logs, List.length plan)

let check_cluster_invariance ~seed =
  let ref_trace, ref_logs, plan_steps = cluster_run ~seed ~domains:1 in
  let calls = Array.fold_left (fun n log -> n + List.length log) 0 ref_logs in
  if calls = 0 then Alcotest.fail "no client completed a call — vacuous comparison";
  if plan_steps = 0 then Alcotest.fail "empty chaos plan — vacuous chaos comparison";
  List.for_all
    (fun domains ->
      let trace, logs, _ = cluster_run ~seed ~domains in
      trace = ref_trace && logs = ref_logs)
    [ 2; 2; 4; 4 ]

let test_cluster_invariant_fixed_seed () =
  Alcotest.(check bool) "domains 2, 2, 4, 4 identical to domains 1 (seed 17)" true
    (check_cluster_invariance ~seed:17)

let prop_cluster_invariant =
  QCheck.Test.make ~count:3 ~name:"chaos cluster: domains {1,2,4} byte-identical"
    QCheck.(int_range 0 10_000)
    (fun seed -> check_cluster_invariance ~seed)

(* ------------------------------------------------------------------ *)
(* Steady-state allocation budget on the replicated-call path.  This
   pins the Collator / duplicate-suppression work at fixed cost: a
   regression that reintroduces per-call closures or per-call table
   churn shows up as a jump in bytes allocated per call.  The budget
   is ~1.2x the measured figure (53.5 KB/call for the 3-member troupe
   with burst charging, OCaml 5.1.1) to stay robust across compiler
   versions while still catching structural regressions. *)

let test_call_alloc_budget () =
  let engine = Engine.create () in
  let net = Net.create engine () in
  let env = Syscall.make net ~costs:Syscall.fast_costs () in
  let members =
    List.init 3 (fun i ->
        let h = Net.add_host net ~name:(Printf.sprintf "server%d" i) () in
        let rt = Runtime.create env h ~port:50 () in
        let module_no = Runtime.export rt (fun _ctx ~proc_no:_ body -> body) in
        Runtime.module_addr rt module_no)
  in
  let troupe = Troupe.make ~id:42L ~members in
  let client_host = Net.add_host net ~name:"client" () in
  let rt = Runtime.create env client_host () in
  let iters = 40 in
  let per_call = ref infinity in
  ignore
    (Runtime.spawn_thread rt (fun ctx ->
         let body = Bytes.create 64 in
         (* Warm-up: populate tables, pools, and scratch buffers. *)
         for _ = 1 to 8 do
           ignore (Runtime.call_troupe ctx troupe ~proc_no:0 body)
         done;
         (* Empty the minor heap at both ends of the window: on OCaml 5,
            [Gc.allocated_bytes] counts minor-heap words only as of the
            last minor collection, so a read without it under-counts the
            window, or over-counts it by a whole minor heap when a
            collection falls inside. *)
         Gc.minor ();
         let before = Gc.allocated_bytes () in
         for _ = 1 to iters do
           ignore (Runtime.call_troupe ctx troupe ~proc_no:0 body)
         done;
         Gc.minor ();
         per_call := (Gc.allocated_bytes () -. before) /. float_of_int iters));
  Engine.run engine;
  let budget = 64_000.0 in
  if not (!per_call < budget) then
    Alcotest.failf "replicated call allocates %.0f bytes/call (budget %.0f)" !per_call budget

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "circus_batching"
    [ ("determinism", qcheck [ prop_pairmsg_trace_deterministic; prop_rpc_trace_deterministic ]);
      ( "burst charging",
        Alcotest.test_case "sendmsg_vec hook raise: no half-charged burst" `Quick
          test_sendmsg_vec_before_raise
        :: qcheck [ prop_burst_equals_use_cpu_loop ] );
      ( "chaos x domains",
        Alcotest.test_case "fixed seed, domains 1/2/4" `Quick test_cluster_invariant_fixed_seed
        :: qcheck [ prop_cluster_invariant ] );
      ("allocation", [ Alcotest.test_case "per-call budget" `Quick test_call_alloc_budget ]) ]
