(* The paper's Table-4.1 measurement rig, driven in a closed loop: one
   client thread calls a troupe of three echo servers with 64-byte
   arguments, point-to-point sends and the unanimous collator (the
   rpctest client and server of the paper's Figure 4.7).  Every call is
   bracketed from outside: a wall-clock span around [Runtime.call_troupe]
   and the simulated time it took. *)

open Circus_sim
open Circus_net
open Circus_rpc
module Causal = Circus_trace.Causal
module Trace = Circus_trace.Trace
module Event = Circus_trace.Event

let members = 3
let payload = 64
let warmup_calls = 3

(* A deliberate defect for the benchmark's self-test: every member
   answers call [k] with a reply that is not an echo. *)
type fault = No_fault | Bad_echo of int

type result = {
  calls : int;  (** measured calls *)
  ok : int;  (** measured calls whose reply equals their argument *)
  executions : int array;  (** handler runs per member, warm-up included *)
  sim_latency : float array;  (** per measured call, simulated seconds *)
  call_wall : float array;  (** per measured call, wall seconds *)
  events : int;  (** engine events, whole run *)
  wall : float;  (** testbed build to the last call, wall seconds *)
  datagrams : int;  (** net datagrams over the measured calls *)
  bytes : int;  (** net payload bytes over the measured calls *)
  dropped : int;
  sendmsg : int;  (** client sendmsg calls over the measured calls *)
  cpu : float;  (** client CPU seconds over the measured calls *)
  trace : (Event.t list * int) option;  (** events and ring drops, when traced *)
}

(* Argument of call [i]: its index in the first four bytes, then bytes
   drawn from the seed, so replies are checkable and inputs seeded. *)
let argument rng i =
  let b = Bytes.create payload in
  for j = 4 to payload - 1 do
    Bytes.set b j (Char.chr (Random.State.int rng 256))
  done;
  Bytes.set_int32_le b 0 (Int32.of_int i);
  b

(* [calls = 0] is the set-up alone: testbed build plus warm-up calls. *)
let run ?(fault = No_fault) ?trace_capacity ~seed ~calls () =
  let t0 = Unix.gettimeofday () in
  let engine = Engine.create ~seed () in
  let traced = Option.is_some trace_capacity in
  if traced then begin
    ignore (Engine.enable_tracing ?capacity:trace_capacity engine);
    Causal.set_enabled true;
    Causal.reset ()
  end;
  let net = Net.create engine () in
  let env = Syscall.make net () in
  let executions = Array.make members 0 in
  let troupe =
    Troupe.make ~id:42L
      ~members:
        (List.init members (fun m ->
             let h = Net.add_host net ~name:(Printf.sprintf "server%d" m) () in
             let rt = Runtime.create env h ~port:50 () in
             let echo _ctx ~proc_no:_ body =
               executions.(m) <- executions.(m) + 1;
               match fault with
               | Bad_echo k when Int32.to_int (Bytes.get_int32_le body 0) = k ->
                 let b = Bytes.copy body in
                 Bytes.set b (payload - 1) (Char.chr (Char.code (Bytes.get b (payload - 1)) lxor 1));
                 b
               | _ -> body
             in
             Runtime.module_addr rt (Runtime.export rt echo)))
  in
  let client_host = Net.add_host net ~name:"client" () in
  let meter = Meter.create () in
  let client = Runtime.create env client_host ~meter () in
  let rng = Random.State.make [| seed |] in
  let ok = ref 0 in
  let sim_latency = Array.make calls 0.0 and call_wall = Array.make calls 0.0 in
  let datagrams = ref 0 and bytes = ref 0 and dropped = ref 0 in
  ignore
    (Runtime.spawn_thread client (fun ctx ->
         let call arg =
           (* Each call mints its own causal root; "done" closes it. *)
           if traced then Causal.set_current Causal.none;
           let reply =
             try Some (Runtime.call_troupe ctx troupe ~proc_no:0 arg) with _ -> None
           in
           if traced then ignore (Causal.step ~host:(Host.id client_host) "done");
           match reply with Some r -> Bytes.equal r arg | None -> false
         in
         for i = 1 to warmup_calls do
           ignore (call (argument rng (-i)))
         done;
         Meter.reset meter;
         Net.reset_stats net;
         for i = 0 to calls - 1 do
           let arg = argument rng i in
           let s0 = Engine.now engine and w0 = Unix.gettimeofday () in
           if call arg then incr ok;
           call_wall.(i) <- Unix.gettimeofday () -. w0;
           sim_latency.(i) <- Engine.now engine -. s0
         done;
         let s = Net.stats net in
         datagrams := s.Net.sent;
         bytes := s.Net.bytes_sent;
         dropped := s.Net.dropped));
  let events = Engine.run_counted engine in
  let wall = Unix.gettimeofday () -. t0 in
  let trace =
    if traced then begin
      let r = Some (Trace.events (), Trace.dropped ()) in
      Causal.set_enabled false;
      Trace.stop ();
      r
    end
    else None
  in
  let sendmsg =
    List.fold_left
      (fun acc (name, _, n) -> if String.equal name "sendmsg" then acc + n else acc)
      0 (Meter.by_syscall meter)
  in
  { calls;
    ok = !ok;
    executions;
    sim_latency;
    call_wall;
    events;
    wall;
    datagrams = !datagrams;
    bytes = !bytes;
    dropped = !dropped;
    sendmsg;
    cpu = Meter.total meter;
    trace }

(* The output check: every reply echoed its argument and each member's
   handler ran exactly once per call. *)
let problems r =
  let expected = warmup_calls + r.calls in
  (if r.ok <> r.calls then
     [ Printf.sprintf "%d of %d replies differ from their argument" (r.calls - r.ok) r.calls ]
   else [])
  @ List.filter_map
      (fun m ->
        if r.executions.(m) <> expected then
          Some
            (Printf.sprintf "member %d ran its handler %d times for %d calls" m
               r.executions.(m) expected)
        else None)
      (List.init members Fun.id)
