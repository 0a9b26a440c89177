(* Seeded inputs of the workloads and of the traced restart rung.

   Every workload runs on one fixed network: the paper's Ark-derived
   general topology at 200 vertices, with its hub destinations, built
   from a constant seed.  The workload seed drives everything a client
   sends — the solve (algo, k) sequence, the churn op stream and the
   restart rung's history — so one seed gives one input, and different seeds
   measure the same system on different request streams. *)

open Tdmd_prelude
module G = Tdmd_graph.Digraph
module Partition = Tdmd_topo.Partition

let network_seed = 2020
let size = 200
let lambda = 0.5
let rates = Tdmd_traffic.Rate_dist.default_caida

(* The graph and its hub destinations, drawn from [rng] as
   [Scenario.build_general] draws them.  churn-durable, the restart
   rung and solve-static's instance all take their network from here,
   so they run on one graph whatever order [build_general] draws in. *)
let draw_network rng =
  let ark = Tdmd_topo.Ark.generate rng ~n:(max (2 * size) 8) in
  Tdmd_topo.Ark.general_of rng ark ~size

let network () = draw_network (Rng.create network_seed)

(* The static instance solve-static serves (about 700 flows): the
   network, then flows drawn from the same generator with the
   paper's general defaults. *)
let solve_instance () =
  let s = Tdmd_sim.Scenario.default_general in
  let rng = Rng.create network_seed in
  let graph, dests = draw_network rng in
  let flows =
    Tdmd_traffic.Workload.general_flows rng graph ~dests ~rates:s.Tdmd_sim.Scenario.rates
      ~density:s.Tdmd_sim.Scenario.density ~link_capacity:s.Tdmd_sim.Scenario.link_capacity ()
  in
  Tdmd.Instance.make ~graph ~flows ~lambda

(* ------------------------------------------------------------------ *)
(* solve-static: (algo, k) requests                                    *)
(* ------------------------------------------------------------------ *)

let k_min = 10
let k_max = 66

type solve_gen = { srng : Rng.t; mutable sstep : int }

let solve_gen seed client = { srng = Rng.create ((seed * 7919) + client); sstep = 0 }

(* Algos alternate gtp/celf; k is uniform in [k_min, k_max]. *)
let next_solve g =
  let algo = if g.sstep land 1 = 0 then "gtp" else "celf" in
  g.sstep <- g.sstep + 1;
  (algo, Rng.int_in g.srng k_min k_max)

(* ------------------------------------------------------------------ *)
(* Hub-destination paths                                               *)
(* ------------------------------------------------------------------ *)

(* The BFS path [Bfs.shortest_path g ~src ~dst] would return, from the
   parent array of one search out of [src]. *)
let walk parent ~src ~dst =
  let rec go v acc = if v = src then src :: acc else go parent.(v) (v :: acc) in
  if dst <> src && parent.(dst) >= 0 then Some (go dst []) else None

(* Every (source, hub) shortest path inside the subgraph [keep] induces
   — the draw of [Workload.general_flows] (random source, random hub,
   BFS path) as an explicit table, so a client picks a path in O(1). *)
let hub_paths g ~dests ~keep =
  let verts = Array.of_list (List.filter keep (List.init (G.vertex_count g) Fun.id)) in
  let sub, old_of_new = G.induced g verts in
  let new_of_old = Hashtbl.create (Array.length verts) in
  Array.iteri (fun i v -> Hashtbl.replace new_of_old v i) old_of_new;
  let dests = List.map (Hashtbl.find new_of_old) (List.filter keep dests) in
  let paths = ref [] in
  Array.iteri
    (fun src _ ->
      let parent = Tdmd_graph.Bfs.parents sub src in
      List.iter
        (fun dst ->
          match walk parent ~src ~dst with
          | Some p -> paths := List.map (fun v -> old_of_new.(v)) p :: !paths
          | None -> ())
        dests)
    old_of_new;
  Array.of_list (List.rev !paths)

(* Paths from region [src_shard] to the hubs of every other region, over
   the whole graph: they straddle the boundary (the 2PC path). *)
let cross_paths g ~dests ~partition ~src_shard =
  let owner = Partition.owner partition in
  let dests = List.filter (fun d -> owner d <> src_shard) dests in
  let paths = ref [] in
  for src = 0 to G.vertex_count g - 1 do
    if owner src = src_shard then begin
      let parent = Tdmd_graph.Bfs.parents g src in
      List.iter
        (fun dst -> Option.iter (fun p -> paths := p :: !paths) (walk parent ~src ~dst))
        dests
    end
  done;
  Array.of_list (List.rev !paths)

(* ------------------------------------------------------------------ *)
(* Churn streams (churn-durable, the restart rung)                     *)
(* ------------------------------------------------------------------ *)

type churn_op =
  | Arrive of { id : int; rate : int; path : int list; cross : bool }
  | Depart of int

let kind_of = function
  | Arrive { cross = true; _ } -> "cross"
  | Arrive _ -> "arrive"
  | Depart _ -> "depart"

(* The op mix of a churn stream: arrives and departs alternate, and one
   arrive in [cross_every] straddles the region boundary. *)
let cross_every = 16

let churn_mix =
  [ ("arrive", float_of_int (cross_every - 1)); ("cross", 1.0); ("depart", float_of_int cross_every) ]

(* One client's stream over one region.  [live] holds the acked arrivals
   not yet departed, oldest first: a client departs its oldest flow, so
   the population stays constant.  The caller pushes on an acked arrive
   ({!acked}); the generator never builds lists per op. *)
type churn_gen = {
  mutable rng : Rng.t;
  local : int list array;
  cross : int list array;
  live : int Queue.t;
  mutable next_id : int;
  mutable step : int;
}

let stream_rng ~seed stream = Rng.create ((seed * 104_729) + stream)

let churn_gen ~seed ~stream ~local ~cross ~first_id =
  {
    rng = stream_rng ~seed stream;
    local;
    cross;
    live = Queue.create ();
    next_id = first_id;
    step = 0;
  }

let fresh_arrive g =
  let cross = Array.length g.cross > 0 && Rng.int g.rng cross_every = 0 in
  let paths = if cross then g.cross else g.local in
  let path = paths.(Rng.int g.rng (Array.length paths)) in
  let id = g.next_id in
  g.next_id <- id + 1;
  Arrive { id; rate = Tdmd_traffic.Rate_dist.sample rates g.rng; path; cross }

(* A local arrive, for preloading a population. *)
let preload_arrive g =
  let path = g.local.(Rng.int g.rng (Array.length g.local)) in
  let id = g.next_id in
  g.next_id <- id + 1;
  Arrive { id; rate = Tdmd_traffic.Rate_dist.sample rates g.rng; path; cross = false }

let next_churn g =
  let op =
    if g.step land 1 = 0 || Queue.is_empty g.live then fresh_arrive g
    else Depart (Queue.peek g.live)
  in
  g.step <- g.step + 1;
  op

(* Record that [op] was acknowledged. *)
let acked g = function
  | Arrive { id; _ } -> Queue.push id g.live
  | Depart id ->
    if (not (Queue.is_empty g.live)) && Queue.peek g.live = id then
      ignore (Queue.pop g.live)

let to_request = function
  | Arrive { id; rate; path; _ } -> Tdmd_server.Protocol.Arrive { id; rate; path }
  | Depart id -> Tdmd_server.Protocol.Depart id

let to_journal = function
  | Arrive { id; rate; path; _ } ->
    Tdmd_server.Journal.Arrive { id; rate; path; req = None }
  | Depart flow_id -> Tdmd_server.Journal.Depart { flow_id; req = None }

(* ------------------------------------------------------------------ *)
(* churn-durable: two regions                                          *)
(* ------------------------------------------------------------------ *)

let churn_shards = 2
let churn_population = 500  (* live flows per shard *)

type churn_net = {
  graph : G.t;
  dests : int list;
  partition : Partition.t;  (* what [Engine.create] computes by default *)
  local_paths : int list array array;  (* by shard *)
  cross_paths : int list array array;
}

let churn_net () =
  let graph, dests = network () in
  let partition = Partition.make graph ~shards:churn_shards in
  let owner = Partition.owner partition in
  {
    graph;
    dests;
    partition;
    local_paths =
      Array.init churn_shards (fun s -> hub_paths graph ~dests ~keep:(fun v -> owner v = s));
    cross_paths =
      Array.init churn_shards (fun s ->
          cross_paths graph ~dests ~partition ~src_shard:s);
  }

(* Client [c] owns region [c]; its ids never collide with another
   client's.  [preload op] applies each of the region's
   [churn_population] preloaded arrivals.  The preload is the deployment
   the server starts from, so, like the network, it is drawn from the
   fixed seed; the workload seed drives only the stream the client sends
   afterwards. *)
let churn_client net ~seed ~preload c =
  let g =
    churn_gen ~seed:network_seed ~stream:c ~local:net.local_paths.(c)
      ~cross:net.cross_paths.(c) ~first_id:((c + 1) * 100_000_000)
  in
  for _ = 1 to churn_population do
    let op = preload_arrive g in
    preload op;
    acked g op
  done;
  g.rng <- stream_rng ~seed c;
  g

(* Writer [w] on region 0, for the traced run's group-commit phase: no
   preload, no boundary-crossing arrives, ids of its own. *)
let region0_writer net ~seed w =
  churn_gen ~seed ~stream:(churn_shards + 1 + w) ~local:net.local_paths.(0) ~cross:[||]
    ~first_id:((10 + w) * 100_000_000)

(* ------------------------------------------------------------------ *)
(* The restart rung: one flat history                                  *)
(* ------------------------------------------------------------------ *)

let history_records = 20_000
let history_population = 500

(* [history_records] ops on the whole network: [history_population]
   arrivals, then depart-oldest/arrive alternating. *)
let history ~seed graph dests =
  let paths = hub_paths graph ~dests ~keep:(fun _ -> true) in
  let g =
    churn_gen ~seed ~stream:churn_shards ~local:paths ~cross:[||] ~first_id:1
  in
  Array.init history_records (fun i ->
      let op = if i < history_population then preload_arrive g else next_churn g in
      acked g op;
      op)
