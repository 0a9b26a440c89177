(* The layer ladder of the traced run.

   Each function replays a seeded op stream through one layer's public
   entry points, bottom-up, recording one span per call; the per-layer
   metrics come from those spans.  A layer's self time is its per-op
   time minus the per-op time of the layer(s) below it:

     solve-static    client.rpc ⊃ engine ⊃ solver ⊃ inc_oracle
     churn-durable   client.rpc ⊃ engine ⊃ session ⊃ {journal, incremental}

   Every traced run also times a restart rung, recover ⊃ {journal
   replay, incremental re-apply}, on a seeded 20k-record WAL.

   Calls that take nanoseconds (oracle marginals, routing) are timed as
   one span over a loop and divided by the call count: a span per call
   would measure the clock. *)

open Tdmd_prelude
module Json = Tdmd_obs.Json
module P = Tdmd_server.Protocol
module Engine = Tdmd_server.Engine
module Session = Tdmd_server.Session
module Journal = Tdmd_server.Journal
module Router = Tdmd_server.Router
module Tel = Tdmd_obs.Telemetry

type out = {
  metrics : (string, float) Hashtbl.t;
  problems : string list ref;
}

let set out name v = Hashtbl.replace out.metrics name v
let problem out msg = out.problems := msg :: !(out.problems)

(* Time [f] [reps] times over [calls] calls each; ns per call. *)
let loop_ns spans ~layer ~calls ~reps f =
  let start = Spans.now_ns () in
  for _ = 1 to reps do
    f ()
  done;
  let stop = Spans.now_ns () in
  Spans.record spans ~layer ~kind:"loop" ~op:0 ~start ~stop;
  float_of_int (stop - start) /. float_of_int (calls * reps)

let median_us spans ?kind layer = Spans.median (Spans.durations ?kind spans layer) /. 1e3

(* ------------------------------------------------------------------ *)
(* solve-static                                                        *)
(* ------------------------------------------------------------------ *)

let solve_mix = [ ("gtp", 1.0); ("celf", 1.0) ]
let solves_per_client = 24

(* The clients' (algo, k) streams, interleaved. *)
let solve_ops ~seed n =
  let gens = Array.init Stacks.clients (Inputs.solve_gen seed) in
  List.concat (List.init n (fun _ -> Array.to_list (Array.map Inputs.next_solve gens)))

(* [engine] serves [inst].  Returns the per-op times (ns) of engine,
   solver and oracle over the solve mix. *)
let solve out spans ~seed ~inst ~engine =
  let v = Tdmd.Instance.vertex_count inst in
  let oracle_ns = Hashtbl.create 2 and calls = Hashtbl.create 2 in
  let push tbl key x = Hashtbl.replace tbl key (x :: Option.value ~default:[] (Hashtbl.find_opt tbl key)) in
  List.iteri
    (fun op (algo, k) ->
      (match
         Spans.time spans ~layer:"engine" ~kind:algo ~op (fun () ->
             Engine.solve engine ~algo ~k ~seed:1 ~target:P.Static)
       with
      | Ok _ -> ()
      | Error (code, msg) -> problem out (Printf.sprintf "engine solve %s k=%d: %s %s" algo k code msg));
      let solver = Option.get (Tdmd.Solvers.find_general algo) in
      let o =
        Spans.time spans ~layer:"solver" ~kind:algo ~op (fun () ->
            solver ~rng:(Rng.create 1) ~k inst)
      in
      let tel = o.Tdmd.Solver_intf.telemetry in
      let c = Tel.get_count tel "oracle_calls" in
      (* Theorem 3: each greedy round asks the oracle at most once per
         vertex, so a solve makes at most k·|V| queries. *)
      if c > k * v then
        problem out (Printf.sprintf "%s k=%d: %d oracle calls exceed k*|V| = %d" algo k c (k * v));
      push calls algo (float_of_int c);
      push oracle_ns algo (float_of_int (Tel.get_count tel "oracle_ns")))
    (solve_ops ~seed solves_per_client);
  let of_kind tbl k = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt tbl k)) in
  set out "gtp.solve_ms" (median_us spans ~kind:"gtp" "solver" /. 1e3);
  set out "celf.solve_ms" (median_us spans ~kind:"celf" "solver" /. 1e3);
  set out "gtp.oracle_calls" (Spans.mean (of_kind calls "gtp"));
  set out "celf.oracle_calls" (Spans.mean (of_kind calls "celf"));
  let engine_ns = Spans.per_op_ns spans "engine" ~mix:solve_mix in
  set out "engine.solve_ms" (engine_ns /. 1e6);
  let oracle = Spans.over_mix ~mix:solve_mix (fun k -> Spans.median (of_kind oracle_ns k)) in
  (engine_ns, Spans.per_op_ns spans "solver" ~mix:solve_mix, oracle)

(* Oracle probes at a half-built GTP placement: a marginal query on
   every vertex, and an add + undo on every undeployed vertex. *)
let inc_oracle out spans ~inst =
  let module O = Tdmd.Inc_oracle in
  let half = (Tdmd.Gtp.run ~budget:(Inputs.k_max / 2) inst).Tdmd.Gtp.placement in
  let o = O.of_list inst (Tdmd.Placement.to_list half) in
  let v = Tdmd.Instance.vertex_count inst in
  let sink = ref 0 in
  set out "inc_oracle.marginal_ns"
    (loop_ns spans ~layer:"inc_oracle.marginal" ~calls:v ~reps:500 (fun () ->
         for x = 0 to v - 1 do
           sink := !sink + O.marginal_volume o x
         done));
  let free = List.filter (fun x -> not (O.mem o x)) (List.init v Fun.id) in
  set out "inc_oracle.add_us"
    (loop_ns spans ~layer:"inc_oracle.add" ~calls:(List.length free) ~reps:100 (fun () ->
         List.iter
           (fun x ->
             O.add o x;
             O.undo o)
           free)
    /. 1e3);
  ignore (Sys.opaque_identity !sink)

(* ------------------------------------------------------------------ *)
(* churn-durable                                                       *)
(* ------------------------------------------------------------------ *)

let churn_ops_per_client = 600

let report_failure out what = function
  | Ok _ -> true
  | Error (code, msg) ->
    problem out (Printf.sprintf "%s: %s %s" what code msg);
    false

(* Client 0's stream after its preload, as a fresh generator sees it:
   the 1-shard replicas below all replay exactly this. *)
let client0 ~seed net ~preload = Inputs.churn_client net ~seed ~preload 0

let replay0 out spans g ~layer ~apply ~after =
  for op_id = 1 to Stacks.clients * churn_ops_per_client do
    let op = Inputs.next_churn g in
    let ok = Spans.time spans ~layer ~kind:(Inputs.kind_of op) ~op:op_id (fun () -> apply op_id op) in
    if report_failure out layer ok then Inputs.acked g op;
    after op_id
  done

let apply_incremental churn = function
  | Inputs.Arrive { id; rate; path; _ } ->
    Tdmd.Incremental.arrive churn (Tdmd_flow.Flow.make ~id ~rate ~path)
  | Inputs.Depart id -> Tdmd.Incremental.depart churn id

(* Bottom-up: incremental, journal, session, engine.  Returns the per-op
   times (ns) of engine, session, journal and incremental over the churn
   mix. *)
let churn out spans ~seed (net : Inputs.churn_net) =
  (* incremental: the churn engine alone *)
  let churn =
    Tdmd.Incremental.create ~graph:net.Inputs.graph ~lambda:Inputs.lambda ~k:(Stacks.churn_k net) ()
  in
  let g = client0 ~seed net ~preload:(apply_incremental churn) in
  let moves0 = Tdmd.Incremental.moves churn in
  replay0 out spans g ~layer:"incremental"
    ~apply:(fun _ op -> Ok (apply_incremental churn op))
    ~after:(fun op ->
      Spans.time spans ~layer:"incremental.bandwidth" ~kind:"bandwidth" ~op (fun () ->
          ignore (Tdmd.Incremental.bandwidth churn)));
  set out "incremental.arrive_us" (median_us spans ~kind:"arrive" "incremental");
  set out "incremental.depart_us" (median_us spans ~kind:"depart" "incremental");
  set out "incremental.bandwidth_us" (median_us spans "incremental.bandwidth");
  set out "incremental.moves_per_op"
    (float_of_int (Tdmd.Incremental.moves churn - moves0)
    /. float_of_int (Stacks.clients * churn_ops_per_client));
  (* journal, as a session writes it: append with ~flush:false, then
     flush under the served WAL's policy.  This is the rung session
     self time subtracts. *)
  let journal_replica ~fsync ~layer ~append ~flush =
    let dir = Stacks.fresh "replica-journal" in
    Unix.mkdir dir 0o755;
    let tel = Tel.create () in
    let journal, _ = Journal.open_append ~tel ~fsync (Filename.concat dir "j.wal") in
    let g = client0 ~seed net ~preload:ignore in
    replay0 out spans g ~layer ~after:ignore ~apply:(fun op_id op ->
        let kind = Inputs.kind_of op in
        Spans.time spans ~layer:append ~kind ~op:op_id (fun () ->
            Journal.append ~flush:false journal (Inputs.to_journal op));
        Spans.time spans ~layer:flush ~kind ~op:op_id (fun () -> Journal.flush journal);
        Ok ());
    Journal.close journal;
    Stacks.rm_rf dir;
    tel
  in
  let tel =
    journal_replica ~fsync:Stacks.churn_fsync ~layer:"journal" ~append:"journal.append"
      ~flush:"journal.write"
  in
  set out "journal.append_us" (median_us spans "journal.append");
  set out "journal.bytes_per_op"
    (float_of_int (Tel.get_count tel "wal_bytes") /. float_of_int (max 1 (Tel.get_count tel "wal_appends")));
  (* The cost of a flush under fsync always, on a journal of its own
     that no self time subtracts. *)
  ignore
    (journal_replica ~fsync:Journal.Always ~layer:"journal.always" ~append:"journal.always.append"
       ~flush:"journal.flush");
  set out "journal.flush_us" (median_us spans "journal.flush");
  (* session: a durable 1-shard replica *)
  let dir = Stacks.fresh "replica-session" in
  let session = Session.create ~config:(Stacks.churn_config net dir) (Stacks.empty_instance net) in
  let session_apply _ = function
    | Inputs.Arrive { id; rate; path; _ } -> Session.arrive session ~id ~rate ~path ()
    | Inputs.Depart id -> Session.depart session id
  in
  let g = client0 ~seed net ~preload:(fun op -> ignore (report_failure out "preload" (session_apply 0 op))) in
  replay0 out spans g ~layer:"session" ~apply:session_apply ~after:(fun op ->
      Spans.time spans ~layer:"session.reply" ~kind:"stats" ~op (fun () ->
          ignore (Session.churn_stats session)));
  Session.close session;
  Stacks.rm_rf dir;
  set out "session.arrive_us" (median_us spans ~kind:"arrive" "session");
  set out "session.depart_us" (median_us spans ~kind:"depart" "session");
  set out "session.reply_us" (median_us spans "session.reply");
  (* engine: a replica with the served engine's shard count, fsync
     policy and preload, fed both clients' streams interleaved *)
  let dir = Stacks.fresh "replica-engine" in
  let engine, gens = Stacks.churn_engine ~seed net dir in
  let router = Engine.router engine in
  let paths = ref [] and arrives = ref 0 and crosses = ref 0 in
  for i = 0 to churn_ops_per_client - 1 do
    Array.iteri
      (fun c g ->
        let op = Inputs.next_churn g in
        (match op with
        | Inputs.Arrive { path; cross; _ } ->
          incr arrives;
          paths := path :: !paths;
          let routed_cross =
            match Router.route_arrive router ~path with Router.Cross _ -> true | Router.Local _ -> false
          in
          if routed_cross then incr crosses;
          if routed_cross <> cross then problem out "router disagrees with the region of a path"
        | Inputs.Depart _ -> ());
        let r =
          Spans.time spans ~layer:"engine" ~kind:(Inputs.kind_of op) ~op:((i * Stacks.clients) + c)
            (fun () -> Stacks.engine_apply engine op)
        in
        if report_failure out "engine" r then Inputs.acked g op)
      gens
  done;
  Engine.close engine;
  Stacks.rm_rf dir;
  set out "engine.arrive_us" (median_us spans ~kind:"arrive" "engine");
  set out "engine.depart_us" (median_us spans ~kind:"depart" "engine");
  set out "engine.cross_arrive_us" (median_us spans ~kind:"cross" "engine");
  set out "router.cross_frac" (float_of_int !crosses /. float_of_int (max 1 !arrives));
  let paths = Array.of_list !paths in
  set out "router.route_arrive_ns"
    (loop_ns spans ~layer:"router.route_arrive" ~calls:(Array.length paths) ~reps:200 (fun () ->
         Array.iter (fun path -> ignore (Sys.opaque_identity (Router.route_arrive router ~path))) paths));
  let per layer = Spans.per_op_ns spans layer ~mix:Inputs.churn_mix in
  (per "engine", per "session", per "journal", per "incremental")

(* ------------------------------------------------------------------ *)
(* Restart                                                             *)
(* ------------------------------------------------------------------ *)

let recover_reps = 5

(* Engine.recover of [root] and its two parts, journal replay and
   incremental re-apply, [recover_reps] times each; every recovered
   engine must hold the pre-crash placement and bandwidth.  Like every
   timed recovery, each part starts after a full major GC, so none pays
   for the garbage of the one before. *)
let recover out spans (root : Stacks.recover_root) =
  let graph, dests = Inputs.network () in
  let check e =
    let stats = Engine.churn_stats e in
    if
      Stacks.int_list (List.assoc "placement" stats) <> root.Stacks.expected_placement
      || Json.to_float (List.assoc "bandwidth" stats) <> Some root.Stacks.expected_bandwidth
    then problem out "the recovered placement or bandwidth differs from the pre-crash state"
  in
  for op = 1 to recover_reps do
    ignore (Stacks.timed_recover ~spans ~op ~inspect:check root.Stacks.dir);
    Gc.full_major ();
    let ops =
      Spans.time spans ~layer:"journal.replay" ~kind:"recover" ~op (fun () ->
          match Journal.replay root.Stacks.wal with
          | Ok (ops, 0) -> ops
          | Ok (_, torn) -> failwith (Printf.sprintf "replay: %d torn bytes" torn)
          | Error msg -> failwith ("replay: " ^ msg))
    in
    Gc.full_major ();
    Spans.time spans ~layer:"incremental.replay" ~kind:"recover" ~op (fun () ->
        let churn = Tdmd.Incremental.create ~graph ~lambda:Inputs.lambda ~k:(Stacks.recover_k dests) () in
        List.iter
          (function
            | Journal.Arrive { id; rate; path; _ } ->
              Tdmd.Incremental.arrive churn (Tdmd_flow.Flow.make ~id ~rate ~path)
            | Journal.Depart { flow_id; _ } -> Tdmd.Incremental.depart churn flow_id
            | _ -> failwith "replay: unexpected record")
          ops)
  done;
  let med layer = Spans.median (Spans.durations spans layer) in
  set out "journal.replay_us_per_op" (med "journal.replay" /. 1e3 /. float_of_int root.Stacks.records)
