(* Tests for the extended graph algorithms: all-pairs shortest paths
   and Bellman-Ford, each checked against Dijkstra. *)

open Tdmd_prelude
module G = Tdmd_graph.Digraph

let weighted_square () =
  (* 0 -1- 1, 1 -2- 3, 0 -4- 2, 2 -1- 3, 0 -10- 3 *)
  let g = G.create 4 in
  G.add_undirected ~weight:1.0 g 0 1;
  G.add_undirected ~weight:2.0 g 1 3;
  G.add_undirected ~weight:4.0 g 0 2;
  G.add_undirected ~weight:1.0 g 2 3;
  G.add_undirected ~weight:10.0 g 0 3;
  g

let test_floyd_warshall () =
  let g = weighted_square () in
  let d = Tdmd_graph.Floyd_warshall.distances g in
  Alcotest.(check (float 1e-9)) "0->3 shortest" 3.0 d.(0).(3);
  Alcotest.(check (float 1e-9)) "diagonal" 0.0 d.(2).(2);
  Alcotest.(check (float 1e-9)) "0->2 via 3" 4.0 d.(0).(2);
  Alcotest.(check (float 1e-9)) "diameter" 4.0 (Tdmd_graph.Floyd_warshall.diameter g)

let prop_floyd_matches_dijkstra =
  QCheck.Test.make ~name:"floyd-warshall = dijkstra from every source" ~count:40
    QCheck.(pair (int_range 2 15) (int_bound 100000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Tdmd_topo.Topo_general.erdos_renyi rng n ~p:0.3 in
      let fw = Tdmd_graph.Floyd_warshall.distances g in
      List.for_all
        (fun s ->
          let dj = Tdmd_graph.Dijkstra.distances g s in
          Array.for_all2 (fun a b -> a = b) fw.(s) dj)
        (Listx.range 0 (n - 1)))

let test_bellman_ford () =
  let g = weighted_square () in
  (match Tdmd_graph.Bellman_ford.distances g 0 with
  | Tdmd_graph.Bellman_ford.Distances d ->
    Alcotest.(check (float 1e-9)) "0->3" 3.0 d.(3)
  | Tdmd_graph.Bellman_ford.Negative_cycle ->
    Alcotest.fail "no negative cycle here");
  (* Negative edge but no cycle. *)
  let h = G.create 3 in
  G.add_edge ~weight:5.0 h 0 1;
  G.add_edge ~weight:(-3.0) h 1 2;
  (match Tdmd_graph.Bellman_ford.distances h 0 with
  | Tdmd_graph.Bellman_ford.Distances d ->
    Alcotest.(check (float 1e-9)) "negative edge ok" 2.0 d.(2)
  | Tdmd_graph.Bellman_ford.Negative_cycle -> Alcotest.fail "no cycle");
  (* Genuine negative cycle. *)
  let c = G.create 2 in
  G.add_edge ~weight:1.0 c 0 1;
  G.add_edge ~weight:(-2.0) c 1 0;
  match Tdmd_graph.Bellman_ford.distances c 0 with
  | Tdmd_graph.Bellman_ford.Negative_cycle -> ()
  | Tdmd_graph.Bellman_ford.Distances _ ->
    Alcotest.fail "negative cycle missed"

let prop_bellman_matches_dijkstra =
  QCheck.Test.make ~name:"bellman-ford = dijkstra on non-negative weights"
    ~count:40
    QCheck.(pair (int_range 2 20) (int_bound 100000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Tdmd_topo.Topo_general.erdos_renyi rng n ~p:0.2 in
      match Tdmd_graph.Bellman_ford.distances g 0 with
      | Tdmd_graph.Bellman_ford.Negative_cycle -> false
      | Tdmd_graph.Bellman_ford.Distances bf ->
        Array.for_all2 (fun a b -> a = b) bf (Tdmd_graph.Dijkstra.distances g 0))

let suite =
  [
    Alcotest.test_case "floyd-warshall: square" `Quick test_floyd_warshall;
    QCheck_alcotest.to_alcotest prop_floyd_matches_dijkstra;
    Alcotest.test_case "bellman-ford: cases" `Quick test_bellman_ford;
    QCheck_alcotest.to_alcotest prop_bellman_matches_dijkstra;
  ]
