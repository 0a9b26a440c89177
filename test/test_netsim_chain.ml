(* The fluid link simulator (cross-validating Eq. 1 end to end), the
   SVG renderer, and the gravity-model workload. *)

open Tdmd_prelude
module P = Tdmd.Placement
module Flow = Tdmd_flow.Flow
module Ns = Tdmd_netsim.Netsim

(* ------------------------------------------------------------------ *)
(* Netsim                                                              *)
(* ------------------------------------------------------------------ *)

let test_netsim_fig1 () =
  let inst = Fixtures.fig1_instance () in
  let r = Ns.route inst (P.of_list [ Fixtures.v5; Fixtures.v2 ]) in
  (* Routed link loads must sum to the paper's 12. *)
  Alcotest.(check (float 1e-9)) "total = Eq.1" 12.0 r.Ns.total_bandwidth;
  Alcotest.(check int) "all served" 0 (List.length r.Ns.unserved);
  (* f1 halved from its source: both its links carry 2. *)
  let load u v =
    let l = List.find (fun l -> l.Ns.src = u && l.Ns.dst = v) r.Ns.links in
    l.Ns.load
  in
  Alcotest.(check (float 1e-9)) "v5->v3 diminished" 2.0 (load Fixtures.v5 Fixtures.v3);
  Alcotest.(check (float 1e-9)) "v3->v1 diminished" 2.0 (load Fixtures.v3 Fixtures.v1);
  (* f2 unprocessed until its destination v2: full rate on both links. *)
  Alcotest.(check (float 1e-9)) "v6->v3 full (f2)" 2.0 (load Fixtures.v6 Fixtures.v3);
  (* v3->v2 carries f2 at full rate. *)
  Alcotest.(check (float 1e-9)) "v3->v2 full" 2.0 (load Fixtures.v3 Fixtures.v2)

let test_netsim_unserved () =
  let inst = Fixtures.fig1_instance () in
  let r = Ns.route inst (P.of_list [ Fixtures.v5 ]) in
  Alcotest.(check int) "three unserved" 3 (List.length r.Ns.unserved);
  Alcotest.(check (float 1e-9)) "matches analytic total"
    (Tdmd.Bandwidth.total inst (P.of_list [ Fixtures.v5 ]))
    r.Ns.total_bandwidth

let test_netsim_utilisation () =
  let inst = Fixtures.fig1_instance () in
  let r = Ns.route inst P.empty in
  Alcotest.(check (float 1e-9)) "unprocessed total" 16.0 r.Ns.total_bandwidth;
  let utils = Ns.link_utilisations r ~capacity:4.0 in
  (match utils with
  | (_, _, top) :: _ -> Alcotest.(check (float 1e-9)) "hottest = 4/4" 1.0 top
  | [] -> Alcotest.fail "expected loads");
  Alcotest.(check (list (pair int int))) "nothing congested at cap 4" []
    (Ns.congested r ~capacity:4.0);
  Alcotest.(check bool) "congested at cap 3" true (Ns.congested r ~capacity:3.0 <> []);
  Alcotest.(check bool) "render non-empty" true (String.length (Ns.render r) > 0)

(* The crucial property: routing and Eq. 1 agree on any instance and
   placement. *)
let prop_netsim_matches_analytic =
  QCheck.Test.make ~name:"netsim link loads sum to the analytic objective"
    ~count:80
    QCheck.(pair (int_bound 100000) (int_range 3 15))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst =
        Fixtures.random_general_instance rng ~n ~flows:(2 * n) ~max_rate:6
          ~lambda:(Rng.float rng 1.0)
      in
      let p =
        P.of_list (Rng.sample_without_replacement rng n (Rng.int rng n))
      in
      let r = Ns.route inst p in
      Float.abs (r.Ns.total_bandwidth -. Tdmd.Bandwidth.total inst p) < 1e-6)

(* ------------------------------------------------------------------ *)
(* SVG + gravity workload                                              *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_svg_graph () =
  let inst = Fixtures.fig1_instance () in
  let svg =
    Tdmd_topo.Svg_render.graph ~highlight:[ 0 ] ~boxes:[ 4 ]
      inst.Tdmd.Instance.graph
  in
  Alcotest.(check bool) "svg doc" true (contains svg "<svg");
  Alcotest.(check bool) "has box square" true (contains svg "<rect x=");
  Alcotest.(check bool) "has circles" true (contains svg "<circle");
  Alcotest.(check bool) "closes" true (contains svg "</svg>")

let test_svg_tree () =
  let svg = Tdmd_topo.Svg_render.tree ~boxes:[ 1 ] (Fixtures.fig5_tree ()) in
  Alcotest.(check bool) "svg doc" true (contains svg "<svg");
  Alcotest.(check bool) "8 labels" true (contains svg ">7</text>")

let test_gravity_flows () =
  let rng = Rng.create 63 in
  let ark = Tdmd_topo.Ark.generate rng ~n:40 in
  let g = ark.Tdmd_topo.Ark.graph in
  let dests = ark.Tdmd_topo.Ark.hubs in
  let flows =
    Tdmd_traffic.Workload.gravity_flows rng g ~dests
      ~rates:(Tdmd_traffic.Rate_dist.Constant 2) ~density:0.4 ~link_capacity:30 ()
  in
  Alcotest.(check bool) "flows exist" true (flows <> []);
  List.iter
    (fun f ->
      Alcotest.(check bool) "valid" true (Flow.validate g f = Ok ());
      Alcotest.(check bool) "to hub" true (List.mem (Flow.dst f) dests))
    flows;
  (* Hub-adjacent sources should be over-represented vs uniform: check
     that the mean degree of sources exceeds the graph's mean degree. *)
  let degree v =
    List.length
      (List.sort_uniq compare
         (Tdmd_graph.Digraph.succ g v @ Tdmd_graph.Digraph.pred g v))
  in
  let n = Tdmd_graph.Digraph.vertex_count g in
  let mean_deg =
    float_of_int (List.fold_left (fun acc v -> acc + degree v) 0 (Listx.range 0 (n - 1)))
    /. float_of_int n
  in
  let src_deg =
    Listx.sum_by (fun f -> float_of_int (degree (Flow.src f))) flows
    /. float_of_int (List.length flows)
  in
  Alcotest.(check bool)
    (Printf.sprintf "degree-biased sources (%.2f > %.2f)" src_deg mean_deg)
    true (src_deg > mean_deg)

let suite =
  [
    Alcotest.test_case "netsim: fig1 link loads" `Quick test_netsim_fig1;
    Alcotest.test_case "netsim: unserved flows" `Quick test_netsim_unserved;
    Alcotest.test_case "netsim: utilisation + congestion" `Quick
      test_netsim_utilisation;
    QCheck_alcotest.to_alcotest prop_netsim_matches_analytic;
    Alcotest.test_case "svg: general graph" `Quick test_svg_graph;
    Alcotest.test_case "svg: tree" `Quick test_svg_tree;
    Alcotest.test_case "traffic: gravity model" `Quick test_gravity_flows;
  ]
