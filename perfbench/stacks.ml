(* The serve stacks the workloads run, their set-up, and the closed-loop
   load that drives them.

   Load is closed-loop because every caller of `tdmd serve` (the CLI
   client included) waits for its reply: [clients] = 2 threads, one
   connection each, against 2 server worker domains, because the
   machine this benchmark targets has 2 cores.  Latency is timed on the
   client around [Client.rpc], which includes framing, the socket, the
   server queue, the engine and the decode of the reply. *)

module Json = Tdmd_obs.Json
module P = Tdmd_server.Protocol
module Server = Tdmd_server.Server
module Client = Tdmd_server.Client
module Engine = Tdmd_server.Engine
module Session = Tdmd_server.Session
module Journal = Tdmd_server.Journal

let clients = 2
let server_domains = 2

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let copy_file src dst =
  let ic = open_in_bin src in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc s;
  close_out oc

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    Unix.mkdir dst 0o755;
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  end
  else copy_file src dst

(* Scratch space inside the checkout: durable roots and sockets.  Socket
   paths stay relative, so they fit the 108-byte sun_path limit wherever
   the checkout lives. *)
let scratch_dir = Printf.sprintf ".perfbench/run-%d" (Unix.getpid ())
let fresh_counter = ref 0

let fresh name =
  incr fresh_counter;
  Filename.concat scratch_dir (Printf.sprintf "%s-%d" name !fresh_counter)

let init_scratch () =
  if not (Sys.file_exists ".perfbench") then Unix.mkdir ".perfbench" 0o755;
  rm_rf scratch_dir;
  Unix.mkdir scratch_dir 0o755;
  at_exit (fun () -> rm_rf scratch_dir)

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

let is_ok j = Json.member "ok" j = Some (Json.Bool true)

let int_list = function
  | Json.List l -> List.filter_map (function Json.Int v -> Some v | _ -> None) l
  | _ -> []

let placement_of j = Option.fold ~none:[] ~some:int_list (Json.member "placement" j)

let float_field name j =
  match Json.member name j with Some v -> Json.to_float v | None -> None

let reply_ok_exn what = function
  | Ok j -> j
  | Error (code, msg) -> failwith (Printf.sprintf "%s: %s: %s" what code msg)

(* ------------------------------------------------------------------ *)
(* Stacks                                                              *)
(* ------------------------------------------------------------------ *)

type stack = {
  engine : Engine.t;
  server : Server.t;
  addr : P.addr;
  root : string;
}

let serve engine ~root =
  let addr = P.Unix_sock (Filename.concat root "s.sock") in
  let server =
    Server.start
      {
        Server.addr;
        domains = server_domains;
        queue_capacity = 64;
        default_deadline_ms = None;
        metrics_out = None;
      }
      engine
  in
  { engine; server; addr; root }

let stop s =
  Server.request_stop s.server;
  Server.wait s.server;
  Engine.close s.engine

let durable ?(fsync = Journal.Always) dir = Some (Session.durability ~fsync dir)

(* solve-static: one shard over the static instance.  The root is
   durable only so that restart time (recover_s) is defined for this
   workload too: a solve never touches the journal. *)
let solve_stack inst =
  let root = fresh "solve" in
  Unix.mkdir root 0o755;
  let engine =
    Engine.create
      ~config:
        {
          Session.Config.default with
          Session.Config.durability = durable (Filename.concat root "db");
        }
      (Engine.General inst)
  in
  serve engine ~root

(* The live deployment of each shard must stay feasible: every region's
   flows end at one of its hubs, so a budget of the region's hubs plus
   room for the boundary flows suffices (checked after the run). *)
let churn_k (net : Inputs.churn_net) =
  let owner = Tdmd_topo.Partition.owner net.Inputs.partition in
  let hubs s = List.length (List.filter (fun d -> owner d = s) net.Inputs.dests) in
  8 + List.fold_left max 0 (List.init Inputs.churn_shards hubs)

(* The churn engine's WAL policy.  fsync latency on a shared virtual
   disk swings with other tenants' I/O: with [Always], churn-durable's
   p99 spread over ten seeds reached 0.55 while the CPU-bound workloads
   stayed under 0.12.  So the served WAL leaves flushing to the OS, and
   the cost of an fsync is measured in the ladder instead
   (journal.flush_us, under [Always]). *)
let churn_fsync = Journal.Never

let churn_config ?(fsync = churn_fsync) net dir =
  {
    Session.Config.default with
    Session.Config.churn_k = churn_k net;
    migration_budget = 0;
    durability = durable ~fsync dir;
  }

let empty_instance (net : Inputs.churn_net) =
  Tdmd.Instance.make ~graph:net.Inputs.graph ~flows:[] ~lambda:Inputs.lambda

let engine_apply engine = function
  | Inputs.Arrive { id; rate; path; _ } -> Engine.arrive engine ~id ~rate ~path ()
  | Inputs.Depart id -> Engine.depart engine id

(* A 2-shard durable engine preloaded with [Inputs.churn_population]
   flows per shard, and the client generators that own them. *)
let churn_engine ?fsync ~seed net dir =
  let engine =
    Engine.create ~config:(churn_config ?fsync net dir) ~shards:Inputs.churn_shards
      (Engine.General (empty_instance net))
  in
  let preload op = ignore (reply_ok_exn "preload" (engine_apply engine op)) in
  let gens = Array.init Inputs.churn_shards (Inputs.churn_client net ~seed ~preload) in
  (engine, gens)

let churn_stack ~seed net =
  let root = fresh "churn" in
  Unix.mkdir root 0o755;
  let engine, gens = churn_engine ~seed net (Filename.concat root "db") in
  (serve engine ~root, gens)

(* The restart rung's churn budget: every hub, plus room. *)
let recover_k dests = List.length dests + 8

type recover_root = {
  dir : string;
  wal : string;  (* the segment the seed snapshot names *)
  records : int;
  expected_placement : int list;
  expected_bandwidth : float;
}

(* The traced run's restart rung: a flat 1-shard root holding the seed
   snapshot and a WAL of the whole seeded history, abandoned without a
   clean close.
   The records are written with [Journal.append], the writer the
   session uses, and the expected pre-crash state is the history
   applied to a fresh churn engine. *)
let recover_root ~seed =
  let graph, dests = Inputs.network () in
  let k = recover_k dests in
  let dir = fresh "recover" in
  let session =
    Session.create
      ~config:
        {
          Session.Config.default with
          Session.Config.churn_k = k;
          durability = durable ~fsync:Journal.Never dir;
        }
      (Tdmd.Instance.make ~graph ~flows:[] ~lambda:Inputs.lambda)
  in
  Session.abandon session;
  let wal =
    match List.filter (fun f -> Filename.check_suffix f ".wal") (Array.to_list (Sys.readdir dir)) with
    | [ f ] -> Filename.concat dir f
    | _ -> failwith "recover root: expected one journal segment"
  in
  let journal, _ = Journal.open_append ~fsync:Journal.Never wal in
  let model = Tdmd.Incremental.create ~graph ~lambda:Inputs.lambda ~k () in
  let history = Inputs.history ~seed graph dests in
  Array.iter
    (fun op ->
      Journal.append journal (Inputs.to_journal op);
      match op with
      | Inputs.Arrive { id; rate; path; _ } ->
        Tdmd.Incremental.arrive model (Tdmd_flow.Flow.make ~id ~rate ~path)
      | Inputs.Depart id -> Tdmd.Incremental.depart model id)
    history;
  Journal.abandon journal;
  {
    dir;
    wal;
    records = Array.length history;
    expected_placement = Tdmd.Placement.to_list (Tdmd.Incremental.placement model);
    expected_bandwidth = Tdmd.Incremental.bandwidth model;
  }

(* Time [Engine.recover] on a fresh copy of [root] (the copy is not
   timed; with [spans] the recovery is a ["recover"] span), hand the
   recovered engine to [inspect], then close it.  Returns ns.  Each
   recovery starts after a full major GC, so none inherits another's
   pending major-GC work. *)
let timed_recover ?spans ?(op = 0) ?(inspect = fun _ -> ()) root =
  let copy = fresh "copy" in
  copy_tree root copy;
  Gc.full_major ();
  let t0 = Spans.now_ns () in
  let engine =
    match Engine.recover (Session.durability copy) with
    | Ok e -> e
    | Error msg -> failwith ("recover: " ^ msg)
  in
  let t1 = Spans.now_ns () in
  Option.iter (fun s -> Spans.record s ~layer:"recover" ~kind:"recover" ~op ~start:t0 ~stop:t1) spans;
  inspect engine;
  Engine.close engine;
  rm_rf copy;
  t1 - t0

(* ------------------------------------------------------------------ *)
(* Closed-loop load                                                    *)
(* ------------------------------------------------------------------ *)

type verdict = Good | Failed | Wrong

(* One op of a client's stream: the request, its kind and id for the
   span, and what to do with the reply (check it, advance the stream). *)
type op = {
  request : P.request;
  kind : string;
  id : int;
  on_reply : (Json.t, string) result -> verdict;
}

type load = {
  lat_ms : float array;  (* ops started inside the window *)
  start_s : float array;  (* their start, in seconds into the window *)
  good : int;
  failed : int;
  wrong : int;
  window_s : float;
  issued : int;
  ping_us : float array;  (* pings after the load, when asked for *)
  last_replies : Json.t list;  (* a sample of replies, for the codec *)
}


let keep_replies = 256

type client_run = {
  c_lat : float array;
  c_start : float array;
  c_good : int;
  c_failed : int;
  c_wrong : int;
  c_last : int;  (* completion time of the client's last counted op *)
  c_issued : int;  (* ops sent, warm-up included *)
  c_ping : float array;
  c_replies : Json.t list;
}

(* Run [clients] closed loops for [warmup_s] + [seconds]; only ops
   started after the warm-up count.  [next c] yields client [c]'s next
   op.  With [spans], every rpc is recorded under layer ["client.rpc"];
   with [pings], each client then times that many pings on its own
   connection. *)
let closed_loop ?spans ?(pings = 0) ~addr ~warmup_s ~seconds next =
  let start = Spans.now_ns () in
  let window_start = start + int_of_float (warmup_s *. 1e9) in
  let window_end = window_start + int_of_float (seconds *. 1e9) in
  let per_client c =
    let conn = Client.connect addr in
    let lat = Spans.Fvec.create () and starts = Spans.Fvec.create () in
    let good = ref 0 and failed = ref 0 and wrong = ref 0 and last = ref 0 in
    let issued = ref 0 in
    let replies = Queue.create () in
    while Spans.now_ns () < window_end do
      let op = next c in
      incr issued;
      let t0 = Spans.now_ns () in
      let reply = Client.rpc conn op.request in
      let t1 = Spans.now_ns () in
      (match spans with
      | Some s -> Spans.record s ~layer:"client.rpc" ~kind:op.kind ~op:op.id ~start:t0 ~stop:t1
      | None -> ());
      let v = op.on_reply reply in
      if t0 >= window_start then begin
        Spans.Fvec.push lat (Spans.ms_of_ns (t1 - t0));
        Spans.Fvec.push starts (float_of_int (t0 - window_start) /. 1e9);
        last := t1;
        (match v with Good -> incr good | Failed -> incr failed | Wrong -> incr wrong);
        match reply with
        | Ok j ->
          Queue.push j replies;
          if Queue.length replies > keep_replies then ignore (Queue.pop replies)
        | Error _ -> ()
      end
    done;
    let ping = Spans.Fvec.create () in
    for _ = 1 to pings do
      let t0 = Spans.now_ns () in
      (match Client.rpc conn P.Ping with
      | Ok j when is_ok j -> ()
      | _ -> failwith "ping failed");
      Spans.Fvec.push ping (Spans.us_of_ns (Spans.now_ns () - t0))
    done;
    Client.close conn;
    {
      c_lat = Spans.Fvec.to_array lat;
      c_start = Spans.Fvec.to_array starts;
      c_good = !good;
      c_failed = !failed;
      c_wrong = !wrong;
      c_last = !last;
      c_issued = !issued;
      c_ping = Spans.Fvec.to_array ping;
      c_replies = List.of_seq (Queue.to_seq replies);
    }
  in
  let results = Array.make clients None in
  let threads =
    List.init clients (fun c ->
        Thread.create (fun () -> results.(c) <- Some (per_client c)) ())
  in
  List.iter Thread.join threads;
  let runs =
    Array.to_list
      (Array.map (function Some r -> r | None -> failwith "client thread died") results)
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  let last = List.fold_left (fun acc r -> max acc r.c_last) 0 runs in
  {
    lat_ms = Array.concat (List.map (fun r -> r.c_lat) runs);
    start_s = Array.concat (List.map (fun r -> r.c_start) runs);
    good = sum (fun r -> r.c_good);
    failed = sum (fun r -> r.c_failed);
    wrong = sum (fun r -> r.c_wrong);
    window_s = float_of_int (max (last - window_start) 1) /. 1e9;
    issued = sum (fun r -> r.c_issued);
    ping_us = Array.concat (List.map (fun r -> r.c_ping) runs);
    last_replies = List.concat_map (fun r -> r.c_replies) runs;
  }
