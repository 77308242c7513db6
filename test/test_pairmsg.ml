(* Tests for the Circus paired message protocol, the UDP echo baseline,
   and the TCP-like stream baseline. *)

open Circus_sim
open Circus_net
open Circus_pairmsg
module Trace = Circus_trace.Trace
module Tev = Circus_trace.Event

(* ------------------------------------------------------------------ *)
(* Segments *)

let segment_roundtrip seg =
  match Segment.decode (Segment.encode seg) with
  | None -> false
  | Some seg' -> seg = seg'

let test_segment_roundtrip () =
  let samples =
    [ Segment.data_segment ~msg_type:Segment.Call ~total:3 ~seg_no:2 ~call_no:77l
        (Bytes.of_string "hello");
      Segment.data_segment ~msg_type:Segment.Return ~please_ack:true ~total:1 ~seg_no:1
        ~call_no:1l Bytes.empty;
      Segment.ack_segment ~msg_type:Segment.Call ~total:5 ~ack_no:4 ~call_no:123456l;
      Segment.probe ~call_no:9l;
      Segment.probe_ack ~call_no:9l;
      Segment.reject ~call_no:10l ]
  in
  List.iter (fun seg -> Alcotest.(check bool) "roundtrip" true (segment_roundtrip seg)) samples

let test_segment_garbage () =
  Alcotest.(check bool) "short" true (Segment.decode (Bytes.of_string "abc") = None);
  Alcotest.(check bool) "bad type" true
    (Segment.decode (Bytes.of_string "\xff\x00\x01\x01\x00\x00\x00\x01") = None)

let prop_split_reassemble =
  QCheck.Test.make ~name:"split/concat identity" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 5000)) (int_range 64 1500))
    (fun (s, mtu) ->
      let parts = Array.to_list (Segment.split_message ~mtu (Bytes.of_string s)) in
      let reassembled = String.concat "" (List.map Bytes.to_string parts) in
      reassembled = s
      && List.length parts <= 255
      && List.for_all (fun p -> Bytes.length p <= mtu - Segment.header_size) parts)

let test_split_too_long () =
  Alcotest.(check bool) "raises" true
    (try ignore (Segment.split_message ~mtu:64 (Bytes.create 100_000)); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Endpoint fixtures *)

type world = {
  engine : Engine.t;
  net : Net.t;
  env : Syscall.env;
  client_host : Host.t;
  server_host : Host.t;
}

let make_world ?params ?seed () =
  let engine = Engine.create ?seed () in
  let net = Net.create engine ?params () in
  let env = Syscall.make net () in
  let client_host = Net.add_host net ~name:"client" () in
  let server_host = Net.add_host net ~name:"server" () in
  { engine; net; env; client_host; server_host }

let echo_server w ~port =
  let ep = Endpoint.create w.env w.server_host ~port () in
  Endpoint.serve ep (fun ~src:_ body -> body);
  ep

let run_client w f =
  let result = ref None in
  let failed = ref None in
  ignore
    (Host.spawn w.client_host (fun () ->
         match f () with v -> result := Some v | exception e -> failed := Some e));
  Engine.run w.engine;
  match (!result, !failed) with
  | Some v, _ -> v
  | None, Some e -> raise e
  | None, None -> Alcotest.fail "client did not finish"

let test_call_echo () =
  let w = make_world () in
  let server = echo_server w ~port:50 in
  let answer =
    run_client w (fun () ->
        let ep = Endpoint.create w.env w.client_host () in
        let reply = Endpoint.call ep ~dst:(Endpoint.addr server) (Bytes.of_string "ping") in
        Endpoint.close ep;
        Bytes.to_string reply)
  in
  Alcotest.(check string) "echoed" "ping" answer

let test_call_multisegment () =
  let w = make_world () in
  let server = echo_server w ~port:50 in
  let big = String.init 10_000 (fun i -> Char.chr (i mod 256)) in
  let answer =
    run_client w (fun () ->
        let ep = Endpoint.create w.env w.client_host () in
        Bytes.to_string (Endpoint.call ep ~dst:(Endpoint.addr server) (Bytes.of_string big)))
  in
  Alcotest.(check bool) "multi-segment echoed" true (answer = big)

let test_call_over_lossy_network () =
  let w = make_world ~params:(Net.lan ~loss:0.2 ~duplication:0.1 ()) ~seed:7 () in
  let server = echo_server w ~port:50 in
  let ok =
    run_client w (fun () ->
        let ep = Endpoint.create w.env w.client_host () in
        let all_ok = ref true in
        for i = 1 to 20 do
          let msg = Printf.sprintf "message-%d" i in
          let reply = Endpoint.call ep ~dst:(Endpoint.addr server) (Bytes.of_string msg) in
          if Bytes.to_string reply <> msg then all_ok := false
        done;
        !all_ok)
  in
  Alcotest.(check bool) "all calls survive 20% loss" true ok

let test_multisegment_over_lossy_network () =
  let w = make_world ~params:(Net.lan ~loss:0.15 ()) ~seed:3 () in
  let server = echo_server w ~port:50 in
  let big = String.init 8_000 (fun i -> Char.chr (i * 7 mod 256)) in
  let answer =
    run_client w (fun () ->
        let ep = Endpoint.create w.env w.client_host () in
        Bytes.to_string (Endpoint.call ep ~dst:(Endpoint.addr server) (Bytes.of_string big)))
  in
  Alcotest.(check bool) "reassembled correctly" true (answer = big)

let test_exactly_once_execution () =
  (* Heavy duplication: the handler must still run once per call. *)
  let w = make_world ~params:(Net.lan ~duplication:0.5 ()) ~seed:11 () in
  let executions = ref 0 in
  let ep_server = Endpoint.create w.env w.server_host ~port:50 () in
  Endpoint.serve ep_server (fun ~src:_ body ->
      incr executions;
      body);
  let calls = 10 in
  ignore
    (run_client w (fun () ->
         let ep = Endpoint.create w.env w.client_host () in
         for i = 1 to calls do
           ignore (Endpoint.call ep ~dst:(Endpoint.addr ep_server) (Bytes.of_string (string_of_int i)))
         done;
         true));
  Alcotest.(check int) "one execution per call" calls !executions

let test_crash_detected () =
  let w = make_world () in
  let server = echo_server w ~port:50 in
  ignore server;
  (* Crash the server before the call is made. *)
  ignore (Engine.schedule w.engine ~delay:0.001 (fun () -> Host.crash w.server_host));
  let outcome =
    run_client w (fun () ->
        Fiber.sleep 0.01;
        let ep = Endpoint.create w.env w.client_host () in
        try
          ignore (Endpoint.call ep ~dst:(Addr.make ~host:(Host.id w.server_host) ~port:50)
                    (Bytes.of_string "hello"));
          `Replied
        with
        | Endpoint.Crashed _ -> `Crashed
        | Endpoint.Rejected _ -> `Rejected)
  in
  Alcotest.(check bool) "crash detected" true (outcome = `Crashed)

let test_crash_mid_execution_detected () =
  let w = make_world () in
  let ep_server = Endpoint.create w.env w.server_host ~port:50 () in
  Endpoint.set_handler ep_server (fun ~src:_ ~call_no:_ _body ->
      (* Never replies; host dies during "execution". *)
      Fiber.sleep 60.0);
  ignore (Engine.schedule w.engine ~delay:0.5 (fun () -> Host.crash w.server_host));
  let outcome =
    run_client w (fun () ->
        let ep = Endpoint.create w.env w.client_host () in
        try
          ignore (Endpoint.call ep ~dst:(Endpoint.addr ep_server) (Bytes.of_string "x"));
          `Replied
        with Endpoint.Crashed _ -> `Crashed)
  in
  Alcotest.(check bool) "mid-execution crash detected" true (outcome = `Crashed)

let test_probes_keep_slow_server_alive () =
  (* Execution takes 5 s, far beyond crash_timeout (2 s): probes must
     prevent a false crash verdict (§4.2.3). *)
  let w = make_world () in
  let ep_server = Endpoint.create w.env w.server_host ~port:50 () in
  Endpoint.set_handler ep_server (fun ~src ~call_no _body ->
      Fiber.sleep 5.0;
      Endpoint.reply ep_server ~dst:src ~call_no (Bytes.of_string "slow-answer"));
  let answer =
    run_client w (fun () ->
        let ep = Endpoint.create w.env w.client_host () in
        Bytes.to_string (Endpoint.call ep ~dst:(Endpoint.addr ep_server) (Bytes.of_string "x")))
  in
  Alcotest.(check string) "slow execution succeeds" "slow-answer" answer

(* ------------------------------------------------------------------ *)
(* Watchdog coverage: crash-detection latency, probe gating, and fiber
   hygiene (§4.2.3). *)

let arg_is name value (e : Tev.t) =
  match List.assoc_opt name e.Tev.args with
  | Some (Tev.Str s) -> String.equal s value
  | _ -> false

let test_return_resumes_after_give_up () =
  (* The server works on the call for 0.5 s (long enough for the call
     to be acked and the client to start probing), then replies into a
     partition.  Its Return gives up (max_retransmits) before the
     partition heals,
     while the client, still inside its crash timeout, waits.  After
     the heal the client's probes reach the server, and a probe for a
     given-up Return must resume its retransmission: otherwise the
     server acks every probe and the client waits forever. *)
  let w = make_world () in
  let _sink = Engine.enable_tracing w.engine in
  Fun.protect ~finally:Trace.stop (fun () ->
      let ep_server = Endpoint.create w.env w.server_host ~port:50 () in
      Endpoint.set_handler ep_server (fun ~src ~call_no body ->
          Fiber.sleep 0.5;
          Net.set_partition_for w.net
            [ [ Host.id w.client_host ]; [ Host.id w.server_host ] ]
            ~duration:1.5;
          Endpoint.reply ep_server ~dst:src ~call_no body);
      let answer = ref None in
      ignore
        (Host.spawn w.client_host (fun () ->
             let ep = Endpoint.create w.env w.client_host () in
             answer :=
               Some
                 (match Endpoint.call ep ~dst:(Endpoint.addr ep_server) (Bytes.of_string "x") with
                 | reply -> Bytes.to_string reply
                 | exception e -> Printexc.to_string e)));
      Engine.run ~until:10.0 w.engine;
      Trace.Expect.at_least ~cat:"pairmsg" ~name:"give_up" ~where:(arg_is "type" "return") 1;
      Alcotest.(check (option string)) "answered after the heal" (Some "x") !answer)

let test_watchdog_crash_within_timeout () =
  (* A mid-call crash must surface as [Crashed] no later than
     crash_timeout + one probe interval after the crash instant — the
     watchdog may only notice at its next tick. *)
  let w = make_world () in
  let cfg = Endpoint.default_config in
  let crash_at = 0.5 in
  let ep_server = Endpoint.create w.env w.server_host ~port:50 () in
  Endpoint.set_handler ep_server (fun ~src:_ ~call_no:_ _body -> Fiber.sleep 60.0);
  ignore (Engine.schedule w.engine ~delay:crash_at (fun () -> Host.crash w.server_host));
  let detected_at =
    run_client w (fun () ->
        let ep = Endpoint.create w.env w.client_host () in
        match Endpoint.call ep ~dst:(Endpoint.addr ep_server) (Bytes.of_string "x") with
        | _ -> Alcotest.fail "call unexpectedly replied"
        | exception Endpoint.Crashed _ -> Engine.now w.engine)
  in
  Alcotest.(check bool) "not before the crash" true (detected_at >= crash_at);
  let deadline = crash_at +. cfg.Endpoint.crash_timeout +. cfg.Endpoint.probe_interval +. 0.1 in
  Alcotest.(check bool)
    (Printf.sprintf "detected by %.2f (got %.2f)" deadline detected_at)
    true
    (detected_at <= deadline)

let test_probes_only_after_msg_acked () =
  (* Probes are an execution-phase mechanism: none may be sent before
     the outgoing call message has been fully acknowledged. *)
  let w = make_world () in
  let _sink = Engine.enable_tracing w.engine in
  Fun.protect ~finally:Trace.stop (fun () ->
      let ep_server = Endpoint.create w.env w.server_host ~port:50 () in
      Endpoint.set_handler ep_server (fun ~src ~call_no _body ->
          Fiber.sleep 5.0;
          Endpoint.reply ep_server ~dst:src ~call_no (Bytes.of_string "done"));
      let answer =
        run_client w (fun () ->
            let ep = Endpoint.create w.env w.client_host () in
            Bytes.to_string
              (Endpoint.call ep ~dst:(Endpoint.addr ep_server) (Bytes.of_string "x")))
      in
      Alcotest.(check string) "slow call still answered" "done" answer;
      Trace.Expect.at_least ~cat:"pairmsg" ~name:"seg_send"
        ~where:(arg_is "type" "probe") 1;
      Trace.Expect.ordered
        ~before:(fun e ->
          e.Tev.cat = "pairmsg" && e.Tev.name = "msg_acked" && arg_is "type" "call" e)
        ~after:(fun e ->
          e.Tev.cat = "pairmsg" && e.Tev.name = "seg_send" && arg_is "type" "probe" e)
        ())

let test_watchdog_fibers_cancelled () =
  (* Every watchdog armed over many calls must be disarmed once its
     exchange finishes — no leaked timer chain.  (Watchdogs are timer
     callback chains on pooled workers, not per-call fibers; the
     arm/disarm trace events carry the hygiene invariant the old
     per-fiber spawn/end check expressed.) *)
  let w = make_world () in
  let _sink = Engine.enable_tracing w.engine in
  Fun.protect ~finally:Trace.stop (fun () ->
      let server = echo_server w ~port:50 in
      let calls = 25 in
      let ok =
        run_client w (fun () ->
            let ep = Endpoint.create w.env w.client_host () in
            let n = ref 0 in
            for i = 1 to calls do
              let body = Bytes.of_string (string_of_int i) in
              if Endpoint.call ep ~dst:(Endpoint.addr server) body = body then incr n
            done;
            !n)
      in
      Alcotest.(check int) "all calls echoed" calls ok;
      let events = Trace.events () in
      let count name =
        List.length
          (List.filter (fun (e : Tev.t) -> e.Tev.cat = "pairmsg" && e.Tev.name = name) events)
      in
      Alcotest.(check int) "one watchdog per call" calls (count "wd_arm");
      Alcotest.(check int) "every watchdog disarmed" (count "wd_arm") (count "wd_disarm"))

let test_no_handler_rejected () =
  let w = make_world () in
  let ep_server = Endpoint.create w.env w.server_host ~port:50 () in
  let outcome =
    run_client w (fun () ->
        let ep = Endpoint.create w.env w.client_host () in
        try
          ignore (Endpoint.call ep ~dst:(Endpoint.addr ep_server) (Bytes.of_string "x"));
          `Replied
        with
        | Endpoint.Rejected _ -> `Rejected
        | Endpoint.Crashed _ -> `Crashed)
  in
  Alcotest.(check bool) "rejected" true (outcome = `Rejected)

let test_call_many_unicast_and_multicast () =
  List.iter
    (fun multicast ->
      let engine = Engine.create () in
      let net = Net.create engine () in
      let env = Syscall.make net () in
      let client_host = Net.add_host net () in
      let servers =
        List.init 3 (fun i ->
            let h = Net.add_host net () in
            let ep = Endpoint.create env h ~port:50 () in
            Endpoint.serve ep (fun ~src:_ _ -> Bytes.of_string (Printf.sprintf "answer-%d" i));
            ep)
      in
      let got = ref [] in
      ignore
        (Host.spawn client_host (fun () ->
             let ep = Endpoint.create env client_host () in
             let dsts = List.map Endpoint.addr servers in
             let replies = Endpoint.call_many ep ~dsts ~multicast (Bytes.of_string "q") in
             for _ = 1 to 3 do
               match Mailbox.recv replies with
               | Some { Endpoint.result = Ok body; _ } -> got := Bytes.to_string body :: !got
               | Some { Endpoint.result = Error e; _ } -> raise e
               | None -> ()
             done));
      Engine.run engine;
      let sorted = List.sort String.compare !got in
      Alcotest.(check (list string))
        (if multicast then "multicast" else "unicast")
        [ "answer-0"; "answer-1"; "answer-2" ] sorted)
    [ false; true ]

let test_call_many_partial_crash () =
  let engine = Engine.create () in
  let net = Net.create engine () in
  let env = Syscall.make net () in
  let client_host = Net.add_host net () in
  let servers =
    List.init 3 (fun _ ->
        let h = Net.add_host net () in
        let ep = Endpoint.create env h ~port:50 () in
        Endpoint.serve ep (fun ~src:_ body -> body);
        (h, ep))
  in
  (* Crash one member shortly after start. *)
  let crash_host, _ = List.nth servers 1 in
  ignore (Engine.schedule engine ~delay:0.0001 (fun () -> Host.crash crash_host));
  let ok = ref 0 and crashed = ref 0 in
  ignore
    (Host.spawn client_host (fun () ->
         Fiber.sleep 0.001;
         let ep = Endpoint.create env client_host () in
         let dsts = List.map (fun (_, ep) -> Endpoint.addr ep) servers in
         let replies = Endpoint.call_many ep ~dsts (Bytes.of_string "q") in
         for _ = 1 to 3 do
           match Mailbox.recv replies with
           | Some { Endpoint.result = Ok _; _ } -> incr ok
           | Some { Endpoint.result = Error (Endpoint.Crashed _); _ } -> incr crashed
           | Some _ | None -> ()
         done));
  Engine.run engine;
  Alcotest.(check int) "two replies" 2 !ok;
  Alcotest.(check int) "one crash" 1 !crashed

let test_deterministic_call_numbers () =
  let w = make_world () in
  let server = echo_server w ~port:50 in
  ignore server;
  let numbers =
    run_client w (fun () ->
        let ep = Endpoint.create w.env w.client_host () in
        List.init 5 (fun _ -> Endpoint.next_call_no ep))
  in
  Alcotest.(check (list int)) "sequential" [ 1; 2; 3; 4; 5 ]
    (List.map Int32.to_int numbers)

(* ------------------------------------------------------------------ *)
(* UDP echo baseline *)

let test_udp_echo () =
  let w = make_world () in
  Udp_echo.start_server w.env w.server_host ~port:7;
  let answer =
    run_client w (fun () ->
        let c =
          Udp_echo.client w.env w.client_host
            ~dst:(Addr.make ~host:(Host.id w.server_host) ~port:7)
            ()
        in
        Bytes.to_string (Udp_echo.echo c (Bytes.of_string "datagram")))
  in
  Alcotest.(check string) "echo" "datagram" answer

let test_udp_echo_retries_on_loss () =
  let w = make_world ~params:(Net.lan ~loss:0.4 ()) ~seed:5 () in
  Udp_echo.start_server w.env w.server_host ~port:7;
  let answer =
    run_client w (fun () ->
        let c =
          Udp_echo.client w.env w.client_host
            ~dst:(Addr.make ~host:(Host.id w.server_host) ~port:7)
            ()
        in
        Bytes.to_string (Udp_echo.echo c ~timeout:0.05 (Bytes.of_string "lossy")))
  in
  Alcotest.(check string) "eventually echoed" "lossy" answer

let test_udp_echo_gives_up () =
  (* No server bound: after [max_retries] retransmissions the client
     must raise rather than hang forever. *)
  let w = make_world () in
  let outcome =
    run_client w (fun () ->
        let c =
          Udp_echo.client w.env w.client_host
            ~dst:(Addr.make ~host:(Host.id w.server_host) ~port:7)
            ()
        in
        match Udp_echo.echo c ~timeout:0.05 ~max_retries:3 (Bytes.of_string "void") with
        | _ -> `Replied
        | exception Udp_echo.Echo_timeout _ -> `Gave_up)
  in
  Alcotest.(check bool) "gave up" true (outcome = `Gave_up);
  (* 1 initial try + 3 retries, all dropped at the unbound port. *)
  Alcotest.(check int) "bounded sends" 4 (Net.stats w.net).Net.dropped

(* ------------------------------------------------------------------ *)
(* TCP-like stream baseline *)

let test_stream_echo () =
  let w = make_world () in
  let listener = Stream.listen w.env w.server_host ~port:9 in
  ignore
    (Host.spawn w.server_host (fun () ->
         let conn = Stream.accept listener in
         let rec loop () =
           match Stream.recv conn with
           | Some body ->
             Stream.send conn body;
             loop ()
           | None -> ()
         in
         loop ()));
  let answer =
    run_client w (fun () ->
        let conn =
          Stream.connect w.env w.client_host
            ~dst:(Addr.make ~host:(Host.id w.server_host) ~port:9)
            ()
        in
        Stream.send conn (Bytes.of_string "stream-data");
        let result =
          match Stream.recv ~timeout:5.0 conn with
          | Some b -> Bytes.to_string b
          | None -> "(timeout)"
        in
        Stream.close conn;
        result)
  in
  Alcotest.(check string) "echo over stream" "stream-data" answer

let test_stream_large_message_lossy () =
  let w = make_world ~params:(Net.lan ~loss:0.1 ()) ~seed:13 () in
  let listener = Stream.listen w.env w.server_host ~port:9 in
  ignore
    (Host.spawn w.server_host (fun () ->
         let conn = Stream.accept listener in
         match Stream.recv ~timeout:30.0 conn with
         | Some body -> Stream.send conn body
         | None -> ()));
  let big = String.init 20_000 (fun i -> Char.chr (i mod 251)) in
  let answer =
    run_client w (fun () ->
        let conn =
          Stream.connect w.env w.client_host
            ~dst:(Addr.make ~host:(Host.id w.server_host) ~port:9)
            ()
        in
        Stream.send conn (Bytes.of_string big);
        match Stream.recv ~timeout:60.0 conn with
        | Some b -> Bytes.to_string b
        | None -> "(timeout)")
  in
  Alcotest.(check bool) "large message intact over loss" true (answer = big)

let test_stream_messages_in_order () =
  let w = make_world ~params:(Net.lan ~loss:0.1 ()) ~seed:21 () in
  let listener = Stream.listen w.env w.server_host ~port:9 in
  let received = ref [] in
  ignore
    (Host.spawn w.server_host (fun () ->
         let conn = Stream.accept listener in
         for _ = 1 to 10 do
           match Stream.recv ~timeout:30.0 conn with
           | Some b -> received := Bytes.to_string b :: !received
           | None -> ()
         done));
  ignore
    (run_client w (fun () ->
         let conn =
           Stream.connect w.env w.client_host
             ~dst:(Addr.make ~host:(Host.id w.server_host) ~port:9)
             ()
         in
         for i = 1 to 10 do
           Stream.send conn (Bytes.of_string (string_of_int i))
         done;
         true));
  Alcotest.(check (list string)) "in order" (List.init 10 (fun i -> string_of_int (i + 1)))
    (List.rev !received)

let test_stream_backoff_under_partition () =
  (* A partition forces repeated retransmissions; the traced "rto" must
     grow monotonically and stay capped, and the message must still
     arrive once the partition heals. *)
  let w = make_world () in
  let _sink = Engine.enable_tracing w.engine in
  Fun.protect ~finally:Trace.stop (fun () ->
      let listener = Stream.listen w.env w.server_host ~port:9 in
      let received = ref None in
      ignore
        (Host.spawn w.server_host (fun () ->
             let conn = Stream.accept listener in
             received := Stream.recv ~timeout:30.0 conn));
      (* Partition after the handshake, for long enough that the RTO
         must back off past its base (0.05 s) several times. *)
      ignore
        (Engine.schedule w.engine ~delay:0.02 (fun () ->
             Net.set_partition_for w.net
               [ [ Host.id w.client_host ]; [ Host.id w.server_host ] ]
               ~duration:1.5));
      ignore
        (run_client w (fun () ->
             let conn =
               Stream.connect w.env w.client_host
                 ~dst:(Addr.make ~host:(Host.id w.server_host) ~port:9)
                 ()
             in
             Fiber.sleep 0.05;  (* inside the partition *)
             Stream.send conn (Bytes.of_string "persistent");
             true));
      (match !received with
      | Some b -> Alcotest.(check string) "delivered after heal" "persistent" (Bytes.to_string b)
      | None -> Alcotest.fail "message lost across partition");
      let rtos =
        List.filter_map
          (fun (e : Tev.t) ->
            if e.Tev.cat = "tcp" && e.Tev.name = "retransmit" then
              match List.assoc_opt "rto" e.Tev.args with
              | Some (Tev.Float f) -> Some f
              | _ -> None
            else None)
          (Trace.events ())
      in
      Alcotest.(check bool) "several retransmits" true (List.length rtos >= 3);
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      Alcotest.(check bool) "rto nondecreasing" true (monotone rtos);
      List.iter
        (fun r -> Alcotest.(check bool) "rto capped" true (r <= 0.8 +. 1e-9))
        rtos)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "circus_pairmsg"
    [ ( "segment",
        [ Alcotest.test_case "roundtrip" `Quick test_segment_roundtrip;
          Alcotest.test_case "garbage" `Quick test_segment_garbage;
          Alcotest.test_case "split too long" `Quick test_split_too_long ]
        @ qcheck [ prop_split_reassemble ] );
      ( "endpoint",
        [ Alcotest.test_case "echo" `Quick test_call_echo;
          Alcotest.test_case "multi-segment" `Quick test_call_multisegment;
          Alcotest.test_case "lossy network" `Quick test_call_over_lossy_network;
          Alcotest.test_case "multi-segment lossy" `Quick test_multisegment_over_lossy_network;
          Alcotest.test_case "exactly-once" `Quick test_exactly_once_execution;
          Alcotest.test_case "crash detected" `Quick test_crash_detected;
          Alcotest.test_case "crash mid-execution" `Quick test_crash_mid_execution_detected;
          Alcotest.test_case "probes keep slow server" `Quick test_probes_keep_slow_server_alive;
          Alcotest.test_case "probe resumes given-up return" `Quick
            test_return_resumes_after_give_up;
          Alcotest.test_case "crash within timeout bound" `Quick test_watchdog_crash_within_timeout;
          Alcotest.test_case "probes only after msg_acked" `Quick test_probes_only_after_msg_acked;
          Alcotest.test_case "watchdog fibers cancelled" `Quick test_watchdog_fibers_cancelled;
          Alcotest.test_case "no handler rejected" `Quick test_no_handler_rejected;
          Alcotest.test_case "call_many" `Quick test_call_many_unicast_and_multicast;
          Alcotest.test_case "call_many partial crash" `Quick test_call_many_partial_crash;
          Alcotest.test_case "deterministic call numbers" `Quick test_deterministic_call_numbers ] );
      ( "udp_echo",
        [ Alcotest.test_case "echo" `Quick test_udp_echo;
          Alcotest.test_case "retry on loss" `Quick test_udp_echo_retries_on_loss;
          Alcotest.test_case "gives up after max_retries" `Quick test_udp_echo_gives_up ] );
      ( "stream",
        [ Alcotest.test_case "echo" `Quick test_stream_echo;
          Alcotest.test_case "large lossy" `Quick test_stream_large_message_lossy;
          Alcotest.test_case "in order" `Quick test_stream_messages_in_order;
          Alcotest.test_case "backoff under partition" `Quick test_stream_backoff_under_partition ] ) ]
