(* perfbench: the repository benchmark (see README.md).

     perfbench --workload W --seed N --seconds S --trace 0|1

   With --trace 0 it sets the workload's stack up (nine times, keeping
   the last), drives it for S seconds, checks every answer and prints the
   end-to-end metrics.  With --trace 1 it runs the traced ladder instead
   and prints the per-layer metrics.  The last line of stdout is one JSON
   object: correct, attempted, failed and the metrics named in
   BENCHMARK.json, with their units; the exit code is 1 when a check
   failed. *)

open Tdmd_prelude
module Json = Tdmd_obs.Json
module P = Tdmd_server.Protocol
module Engine = Tdmd_server.Engine
module Session = Tdmd_server.Session
module Shard = Tdmd_server.Shard
module Server = Tdmd_server.Server
module Journal = Tdmd_server.Journal
module Tel = Tdmd_obs.Telemetry

let out = { Ladder.metrics = Hashtbl.create 64; problems = ref [] }
let set = Ladder.set out
let problem = Ladder.problem out
let notes = ref []
let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt
let attempted = ref 0
let failed = ref 0

let warmup_s = 1.0

(* The serve workloads spend this share of --seconds serving and the
   rest timing recoveries of their set-up root, half before serving and
   half after, so the recoveries sample two stretches of the host's
   speed. *)
let serve_share = 0.5

(* Recoveries are read at their fastest window ([Spans.quiet] with
   q = 0).  A recovery is memory-bound: in the host's slow stretches it
   slows by up to half where the serve paths slow by a fifth, and a slow
   stretch can cover a whole recovery phase, so only the fastest window
   comes back the same from run to run.  A window's median over at least
   20 recoveries is not moved by one outlier. *)
let recover_q = 0.0

(* ------------------------------------------------------------------ *)
(* Shared measurements                                                 *)
(* ------------------------------------------------------------------ *)

(* Set the stack up [setup_reps] times, tearing all but the last down;
   setup_s is the median. *)
let setup_reps = 9

let measured_setup ~build ~teardown =
  let times = ref [] in
  let rec go i =
    let t0 = Spans.now_ns () in
    let x = build () in
    times := Spans.ms_of_ns (Spans.now_ns () - t0) /. 1e3 :: !times;
    if i = setup_reps then x
    else begin
      teardown x;
      Gc.compact ();
      go (i + 1)
    end
  in
  let x = go 1 in
  set "setup_s" (Spans.median (Array.of_list !times));
  note "setup_s: median of %d set-ups [%s]" setup_reps
    (String.concat "; " (List.rev_map (Printf.sprintf "%.4f") !times));
  x

let rss_peak_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = scan () in
  close_in ic;
  float_of_int kb /. 1024.0

let show a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4g") a))

(* Throughput, p50 and p99 are each computed on equal sub-windows of
   the run and read with [Spans.quiet].  Every sub-window holds at least
   1000 samples, so its p99 has at least 10 beyond it. *)
let load_metrics (l : Stacks.load) =
  let n = Array.length l.Stacks.lat_ms in
  let w = max 1 (min 10 (n / 1000)) in
  let per_window f = Spans.per_window ~windows:w ~span:l.Stacks.window_s l.Stacks.start_s l.Stacks.lat_ms f in
  let width = l.Stacks.window_s /. float_of_int w in
  let tput = per_window (fun b -> float_of_int (Array.length b) /. width) in
  let p50 = per_window Spans.median and p99 = per_window (fun b -> Spans.percentile b 0.99) in
  set "throughput_ops_s" (Spans.quiet ~lower_better:false tput);
  set "latency_p50_ms" (Spans.quiet ~lower_better:true p50);
  set "latency_p99_ms" (Spans.quiet ~lower_better:true p99);
  note "sub-windows: ops/s [%s]; p50 ms [%s]; p99 ms [%s]" (show tput) (show p50) (show p99);
  attempted := n;
  failed := l.Stacks.failed + l.Stacks.wrong;
  if l.Stacks.wrong > 0 then problem (Printf.sprintf "%d answers differ from the reference" l.Stacks.wrong);
  note "load: closed loop, %d clients x 1 connection, %d server domains, %.2f s window, %d samples in %d sub-windows"
    Stacks.clients Stacks.server_domains l.Stacks.window_s n w;
  note "whole window: %.2f ops/s, p50 %.4f ms, p99 %.4f ms"
    (float_of_int l.Stacks.good /. l.Stacks.window_s)
    (Spans.median l.Stacks.lat_ms) (Spans.percentile l.Stacks.lat_ms 0.99)

(* The durable root as set-up left it. *)
let copy_root (stack : Stacks.stack) =
  let copy = Stacks.fresh "setup-root" in
  Stacks.copy_tree (Filename.concat stack.Stacks.root "db") copy;
  copy

(* Restart time is what a process takes to recover a root, and the
   heap a process has built up moves it by up to 30 %.  So recoveries
   are timed in a child process of this executable, started for the
   phase, recovering fresh copies of the root for [seconds] after one
   untimed recovery.  Returns every recovery's start (s into the phase)
   and time (s); the children's peak RSS counts towards rss_peak_mb. *)
let child_rss_mb = ref 0.0

let recover_child root ~seconds =
  Stacks.init_scratch ();
  ignore (Stacks.timed_recover root);
  let stop = Spans.now_ns () + int_of_float (seconds *. 1e9) in
  while Spans.now_ns () < stop do
    let at = Spans.now_ns () in
    Printf.printf "%d %d\n" at (Stacks.timed_recover root)
  done;
  Printf.printf "rss %f\n" (rss_peak_mb ());
  exit 0

let recover_in_child root ~seconds =
  let phase_start = Spans.now_ns () in
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "--recover-child"; root; "--seconds"; Printf.sprintf "%.3f" seconds |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let times = ref [] in
  (try
     while true do
       let line = input_line ic in
       match String.split_on_char ' ' line with
       | [ "rss"; mb ] -> child_rss_mb := Float.max !child_rss_mb (float_of_string mb)
       | [ at; ns ] ->
         times := (float_of_int (int_of_string at - phase_start) /. 1e9, float_of_string ns /. 1e9) :: !times
       | _ -> failwith ("recovery child: " ^ line)
     done
   with End_of_file -> close_in ic);
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "recovery child failed");
  let all = Array.of_list (List.rev !times) in
  (Array.map fst all, Array.map snd all)

(* A recovery phase: the per-window median recovery (s) over [seconds]
   of recoveries in a child process, up to 20 windows of at least 20
   recoveries each. *)
let recover_windows root ~seconds =
  let starts, times = recover_in_child root ~seconds in
  let n = Array.length times in
  let w = max 1 (min 20 (n / 20)) in
  let p50 = Spans.per_window ~windows:w ~span:seconds starts times Spans.median in
  note "recoveries: %d, %d sub-windows; median s [%s]" n w (show p50);
  p50

(* recover_s for the serve workloads: Engine.recover of the set-up root,
   timed in [early] (before serving) and again for [seconds] once the
   server has stopped.  [inspect] checks one recovery in this process. *)
let recover_s ~seconds ?inspect ~early root =
  ignore (Stacks.timed_recover ?inspect root);
  let late = recover_windows root ~seconds in
  set "recover_s" (Spans.quiet ~q:recover_q ~lower_better:true (Array.append early late))

let recover_share seconds = (1.0 -. serve_share) *. seconds /. 2.0

(* [bandwidth] is b(P, F) as a share of b(∅, F) = Σ r_f·|p_f| (Lemma 1's
   maximum), so it lies in [λ, 1]: the absolute value varies by 15 % from
   seed to seed with the elephant flows drawn, the share by 1 %. *)
let bandwidth_share b ~max =
  set "bandwidth" (b /. float_of_int max);
  note "bandwidth: b(P, F) = %.2f of b(empty, F) = %d" b max

(* ------------------------------------------------------------------ *)
(* solve-static                                                        *)
(* ------------------------------------------------------------------ *)

let solvers = [ "gtp"; "celf" ]

(* Direct registry answers for every (algo, k) a client can send. *)
let solve_refs inst =
  let refs = Hashtbl.create 128 in
  List.iter
    (fun algo ->
      let f = Option.get (Tdmd.Solvers.find_general algo) in
      for k = Inputs.k_min to Inputs.k_max do
        let o = f ~rng:(Rng.create 1) ~k inst in
        Hashtbl.replace refs (algo, k)
          (Tdmd.Placement.to_list o.Tdmd.Solver_intf.placement, o.Tdmd.Solver_intf.bandwidth)
      done)
    solvers;
  for k = Inputs.k_min to Inputs.k_max do
    if Hashtbl.find refs ("gtp", k) <> Hashtbl.find refs ("celf", k) then
      problem (Printf.sprintf "gtp and celf disagree at k=%d" k)
  done;
  refs

(* The clients' solve streams; every answer must be bit-identical to
   the registry's.  Also returns the mean bandwidth over answers. *)
let solve_next ~seed refs =
  let gens = Array.init Stacks.clients (Inputs.solve_gen seed) in
  let steps = Array.make Stacks.clients 0 in
  let bw = Array.make Stacks.clients 0.0 and answers = Array.make Stacks.clients 0 in
  let next c =
    let algo, k = Inputs.next_solve gens.(c) in
    let id = (steps.(c) * Stacks.clients) + c in
    steps.(c) <- steps.(c) + 1;
    {
      Stacks.request = P.Solve { algo; k; seed = 1; target = P.Static };
      kind = algo;
      id;
      on_reply =
        (function
        | Ok j when Stacks.is_ok j ->
          let placement, bandwidth = Hashtbl.find refs (algo, k) in
          if Stacks.placement_of j = placement && Stacks.float_field "bandwidth" j = Some bandwidth
          then begin
            bw.(c) <- bw.(c) +. bandwidth;
            answers.(c) <- answers.(c) + 1;
            Stacks.Good
          end
          else Stacks.Wrong
        | _ -> Stacks.Failed);
    }
  in
  let mean_bandwidth () =
    Array.fold_left ( +. ) 0.0 bw /. float_of_int (max 1 (Array.fold_left ( + ) 0 answers))
  in
  (next, mean_bandwidth)

let teardown_stack (s : Stacks.stack) =
  Stacks.stop s;
  Stacks.rm_rf s.Stacks.root

(* A restarted solve server must answer like the live one. *)
let check_restart refs e =
  match Engine.solve e ~algo:"gtp" ~k:Inputs.k_min ~seed:1 ~target:P.Static with
  | Ok j when (Stacks.placement_of j, Stacks.float_field "bandwidth" j)
              = (let p, b = Hashtbl.find refs ("gtp", Inputs.k_min) in (p, Some b)) -> ()
  | _ -> problem "the recovered solve server answers differently"

let solve_static ~seed ~seconds =
  let stack =
    measured_setup ~build:(fun () -> Stacks.solve_stack (Inputs.solve_instance ())) ~teardown:teardown_stack
  in
  let setup_root = copy_root stack in
  let refs = solve_refs (Engine.general stack.Stacks.engine) in
  let next, mean_bandwidth = solve_next ~seed refs in
  let early = recover_windows setup_root ~seconds:(recover_share seconds) in
  load_metrics (Stacks.closed_loop ~addr:stack.Stacks.addr ~warmup_s ~seconds:(serve_share *. seconds) next);
  bandwidth_share (mean_bandwidth ())
    ~max:(Tdmd.Instance.total_path_volume (Engine.general stack.Stacks.engine));
  teardown_stack stack;
  recover_s ~seconds:(recover_share seconds) ~inspect:(check_restart refs) ~early setup_root

(* ------------------------------------------------------------------ *)
(* churn-durable                                                       *)
(* ------------------------------------------------------------------ *)

let churn_next gens =
  let steps = Array.make Stacks.clients 0 in
  fun c ->
    let g = gens.(c) in
    let op = Inputs.next_churn g in
    let id = (steps.(c) * Stacks.clients) + c in
    steps.(c) <- steps.(c) + 1;
    {
      Stacks.request = Inputs.to_request op;
      kind = Inputs.kind_of op;
      id;
      on_reply =
        (function
        | Ok j when Stacks.is_ok j ->
          Inputs.acked g op;
          Stacks.Good
        | _ -> Stacks.Failed);
    }

let live_flows e =
  List.concat
    (List.init (Engine.shard_count e) (fun i -> Session.live_flows (Shard.session (Engine.shard e i))))

let live_ids e = List.sort compare (List.map (fun f -> f.Tdmd_flow.Flow.id) (live_flows e))

let churn_view e =
  let stats = Engine.churn_stats e in
  let field name = List.assoc name stats in
  (field "placement", field "bandwidth", live_ids e)

(* After the run: every acked arrive is live or departed, the
   deployment is feasible, and a crash followed by Engine.recover of the
   root reproduces the live placement bit for bit. *)
let check_churn (stack : Stacks.stack) gens =
  let e = stack.Stacks.engine in
  let expected =
    List.sort compare (List.concat_map (fun g -> List.of_seq (Queue.to_seq g.Inputs.live)) (Array.to_list gens))
  in
  let placement, bandwidth, live = churn_view e in
  let volume = Tdmd_flow.Flow.total_path_volume (live_flows e) in
  if live <> expected then problem "live flows differ from acked arrivals minus acked departures";
  if List.assoc "feasible" (Engine.churn_stats e) <> Json.Bool true then
    problem "the live deployment is infeasible";
  Server.request_stop stack.Stacks.server;
  Server.wait stack.Stacks.server;
  for i = 0 to Engine.shard_count e - 1 do
    Session.abandon (Shard.session (Engine.shard e i))
  done;
  let t0 = Spans.now_ns () in
  (match Engine.recover (Session.durability (Filename.concat stack.Stacks.root "db")) with
  | Error msg -> problem ("recover after the run: " ^ msg)
  | Ok r ->
    note "post-run crash recovery: %.4f s" (Spans.ms_of_ns (Spans.now_ns () - t0) /. 1e3);
    if churn_view r <> (placement, bandwidth, live) then
      problem "the recovered engine differs from the live one";
    Engine.close r);
  Engine.close e;
  let b = Option.value ~default:nan (Json.to_float bandwidth) in
  bandwidth_share b ~max:volume

let churn_durable ~seed ~seconds =
  let net = Inputs.churn_net () in
  let stack, gens =
    measured_setup
      ~build:(fun () -> Stacks.churn_stack ~seed net)
      ~teardown:(fun (s, _) -> teardown_stack s)
  in
  let setup_root = copy_root stack in
  let early = recover_windows setup_root ~seconds:(recover_share seconds) in
  load_metrics
    (Stacks.closed_loop ~addr:stack.Stacks.addr ~warmup_s ~seconds:(serve_share *. seconds) (churn_next gens));
  check_churn stack gens;
  Stacks.rm_rf stack.Stacks.root;
  recover_s ~seconds:(recover_share seconds) ~early setup_root

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let gc_per_op ~ops (g0 : Gc.stat) (g1 : Gc.stat) =
  let ops = float_of_int (max 1 ops) in
  set "gc.minor_words_per_op" ((g1.Gc.minor_words -. g0.Gc.minor_words) /. ops);
  set "gc.major_collections_per_kop"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) *. 1000.0 /. ops)

(* Codec cost of a sample of the workload's requests and replies. *)
let codec requests replies =
  let reps = 20 in
  let time_per_call f xs =
    let n = Array.length xs in
    let t0 = Spans.now_ns () in
    for _ = 1 to reps do
      Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs
    done;
    float_of_int (Spans.now_ns () - t0) /. 1e3 /. float_of_int (max 1 (n * reps))
  in
  let encode r = Json.to_string (P.request_to_json r) in
  let frames = Array.map encode requests in
  let reply_frames = Array.map Json.to_string replies in
  let mean_len a =
    float_of_int (Array.fold_left (fun acc s -> acc + String.length s) 0 a)
    /. float_of_int (max 1 (Array.length a))
  in
  set "protocol.request_encode_us" (time_per_call encode requests);
  set "protocol.request_decode_us"
    (time_per_call (fun s -> Result.bind (Json.of_string s) P.request_of_json) frames);
  set "protocol.reply_decode_us" (time_per_call Json.of_string reply_frames);
  set "protocol.request_bytes" (mean_len frames);
  set "protocol.reply_bytes" (mean_len reply_frames)

(* Generator cost: build and encode [ops] requests from [next] without
   sending them. *)
let loadgen_requests ~ops next =
  let t0 = Spans.now_ns () in
  for _ = 1 to ops do
    ignore (Sys.opaque_identity (Json.to_string (P.request_to_json (next ()))))
  done;
  set "loadgen.us_per_op" (float_of_int (Spans.now_ns () - t0) /. 1e3 /. float_of_int ops)

(* The server's request-queue depth, sampled every millisecond from the
   gauge behind [Server.stats_fields]'s queue_depth (stats_fields itself
   would recompute churn stats under the session locks). *)
let with_queue_sampler server f =
  let stop = Atomic.make false and peak = ref 0.0 in
  let sampler =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          (match Tel.find (Server.telemetry server) "queue_depth" with
          | Some (Tel.Float d) -> peak := Float.max !peak d
          | _ -> ());
          Thread.delay 0.001
        done)
      ()
  in
  let r = f () in
  Atomic.set stop true;
  Thread.join sampler;
  (r, !peak)

(* One serve phase of the traced run: a traced window (with the queue
   sampler, GC deltas and pings) between two untraced half-windows, so
   drift over the phase cancels out of the tracing overhead.  Returns
   the untraced p50 (when asked for) and the traced load. *)
let traced_serve spans (stack : Stacks.stack) ~phase_s ~untraced next =
  let addr = stack.Stacks.addr in
  let checked (l : Stacks.load) =
    if l.Stacks.wrong + l.Stacks.failed > 0 then
      problem (Printf.sprintf "%d ops failed, %d answers wrong" l.Stacks.failed l.Stacks.wrong);
    l
  in
  let half () =
    if untraced then
      (checked (Stacks.closed_loop ~addr ~warmup_s:0.5 ~seconds:(phase_s /. 2.0) next)).Stacks.lat_ms
    else [||]
  in
  let before = half () in
  let g0 = Gc.quick_stat () in
  let load, peak =
    with_queue_sampler stack.Stacks.server (fun () ->
        checked (Stacks.closed_loop ~spans ~pings:500 ~addr ~warmup_s:0.5 ~seconds:phase_s next))
  in
  let g1 = Gc.quick_stat () in
  let after = half () in
  let p50_untraced = if untraced then Some (Spans.median (Array.append before after)) else None in
  (p50_untraced, load, peak, (g0, g1))

let server_metrics (load : Stacks.load) peak =
  set "server.ping_rtt_us" (Spans.median load.Stacks.ping_us);
  set "server.queue_peak" peak

(* shard.* and journal.fsyncs_per_op from the shards' own counters, as
   deltas over the group-commit phase. *)
let shard_counters e =
  List.init (Engine.shard_count e) (fun i ->
      let sh = Engine.shard e i in
      let tel = Session.durability_telemetry (Shard.session sh) in
      (Shard.stats sh, Tel.get_count tel "wal_fsyncs", Tel.get_count tel "wal_appends"))

let shard_metrics before after =
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let d f = sum f after - sum f before in
  let batches = d (fun (s, _, _) -> s.Shard.batches) in
  let ops = d (fun (s, _, _) -> s.Shard.batched_ops) in
  let fsyncs = d (fun (_, f, _) -> f) and appends = d (fun (_, _, a) -> a) in
  set "shard.batch_avg" (float_of_int ops /. float_of_int (max 1 batches));
  set "shard.queue_peak" (float_of_int (List.fold_left (fun acc (s, _, _) -> max acc s.Shard.queue_peak) 0 after));
  set "journal.fsyncs_per_op" (float_of_int fsyncs /. float_of_int (max 1 appends));
  note "group commit: %d ops in %d batches; %d fsyncs for %d WAL appends" ops batches fsyncs appends

(* The first [n] requests of client 0's churn stream. *)
let churn_requests ~seed net n =
  let g = Ladder.client0 ~seed net ~preload:ignore in
  Array.init n (fun _ ->
      let op = Inputs.next_churn g in
      Inputs.acked g op;
      Inputs.to_request op)

(* A traced churn phase on a fresh churn stack.  [own] says whether it
   is the workload's own phase (then untraced vs traced, GC and server
   metrics come from it too).  Returns the traced per-op rpc time (ns)
   and the untraced p50 (ms). *)
let churn_phase spans ~seed net ~phase_s ~own =
  let stack, gens = Stacks.churn_stack ~seed net in
  let next = churn_next gens in
  let p50_untraced, load, peak, (g0, g1) = traced_serve spans stack ~phase_s ~untraced:own next in
  if own || not (Hashtbl.mem out.Ladder.metrics "server.ping_rtt_us") then begin
    server_metrics load peak;
    codec (churn_requests ~seed net 512) (Array.of_list load.Stacks.last_replies)
  end;
  if own then gc_per_op ~ops:load.Stacks.issued g0 g1;
  teardown_stack stack;
  let rpc = Spans.per_op_ns spans "client.rpc" ~mix:Inputs.churn_mix in
  (rpc, p50_untraced, load)

(* Group commit batches the ops that queue at a shard while its leader
   commits, so it needs a commit that takes time and at least three
   writers: with two, the one waiting is the whole next batch.  The
   served churn stack has neither (no fsync, one client per shard, two
   worker domains), so this phase drives a replica 2-shard engine whose
   WALs fsync every commit, from [group_writers] threads calling
   [Engine.arrive]/[Engine.depart] on shard 0; a thread waiting in fsync
   lets the others queue.  shard.* and journal.fsyncs_per_op come from
   it. *)
let group_writers = 4

let group_commit_phase ~seed net ~seconds =
  let dir = Stacks.fresh "group-commit" in
  let engine, _ = Stacks.churn_engine ~fsync:Journal.Always ~seed net dir in
  let before = shard_counters engine in
  let stop = Spans.now_ns () + int_of_float (seconds *. 1e9) in
  let errors = Atomic.make 0 in
  let writer w () =
    let g = Inputs.region0_writer net ~seed w in
    while Spans.now_ns () < stop do
      let op = Inputs.next_churn g in
      match Stacks.engine_apply engine op with
      | Ok _ -> Inputs.acked g op
      | Error _ -> Atomic.incr errors
    done
  in
  List.iter Thread.join (List.init group_writers (fun w -> Thread.create (writer w) ()));
  if Atomic.get errors > 0 then problem (Printf.sprintf "group-commit phase: %d ops failed" (Atomic.get errors));
  shard_metrics before (shard_counters engine);
  Engine.close engine;
  Stacks.rm_rf dir

(* The solve ladder on a non-served engine, for workloads that do not
   serve solves themselves. *)
let solve_ladder spans ~seed inst =
  let engine = Engine.create (Engine.General inst) in
  ignore (Ladder.solve out spans ~seed ~inst ~engine);
  Engine.close engine

(* The ladder summary: self times, the biggest layer and the residual
   against the untraced end-to-end p50. *)
let summarize ~workload ~p50_ms ~traced_p50_ms layers =
  set "trace.overhead_ms" (traced_p50_ms -. p50_ms);
  let self_ms = List.map (fun (name, ns) -> (name, ns /. 1e6)) layers in
  let total = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 self_ms in
  let top, top_ms =
    List.fold_left (fun (bn, bm) (n, m) -> if m > bm then (n, m) else (bn, bm)) ("-", neg_infinity) self_ms
  in
  set "ladder.top_self_ms" top_ms;
  set "ladder.residual_ms" (p50_ms -. total);
  note "%s self time per op (ms): %s" workload
    (String.concat ", " (List.map (fun (n, m) -> Printf.sprintf "%s %.4f" n m) self_ms));
  note "%s biggest self-time layer: %s (%.4f ms of p50 %.4f ms); residual %.4f ms; tracing overhead %.4f ms"
    workload top top_ms p50_ms (p50_ms -. total) (traced_p50_ms -. p50_ms)

let traced workload ~seed ~seconds =
  let spans = Spans.create () in
  let phase_s = seconds *. 0.25 in
  let inst = Inputs.solve_instance () in
  let net = Inputs.churn_net () in
  (match workload with
  | "solve-static" ->
    let stack = Stacks.solve_stack inst in
    let refs = solve_refs inst in
    let next, _ = solve_next ~seed refs in
    let p50_untraced, load, peak, (g0, g1) = traced_serve spans stack ~phase_s ~untraced:true next in
    server_metrics load peak;
    gc_per_op ~ops:load.Stacks.issued g0 g1;
    let gen = Inputs.solve_gen seed 0 in
    let solve_request () =
      let algo, k = Inputs.next_solve gen in
      P.Solve { algo; k; seed = 1; target = P.Static }
    in
    codec (Array.init 512 (fun _ -> solve_request ())) (Array.of_list load.Stacks.last_replies);
    loadgen_requests ~ops:20_000 solve_request;
    let engine, solver, oracle = Ladder.solve out spans ~seed ~inst ~engine:stack.Stacks.engine in
    let rpc = Spans.per_op_ns spans "client.rpc" ~mix:Ladder.solve_mix in
    set "server.self_us" ((rpc -. engine) /. 1e3);
    teardown_stack stack;
    ignore (churn_phase spans ~seed net ~phase_s:(seconds *. 0.15) ~own:false);
    ignore (Ladder.churn out spans ~seed net);
    Ladder.recover out spans (Stacks.recover_root ~seed);
    summarize ~workload ~p50_ms:(Option.get p50_untraced) ~traced_p50_ms:(Spans.median load.Stacks.lat_ms)
      [ ("server", rpc -. engine); ("engine", engine -. solver); ("solver", solver -. oracle); ("inc_oracle", oracle) ]
  | "churn-durable" ->
    let rpc, p50_untraced, load = churn_phase spans ~seed net ~phase_s ~own:true in
    let g = Ladder.client0 ~seed net ~preload:ignore in
    loadgen_requests ~ops:20_000 (fun () ->
        let op = Inputs.next_churn g in
        Inputs.acked g op;
        Inputs.to_request op);
    let engine, session, journal, incremental = Ladder.churn out spans ~seed net in
    set "server.self_us" ((rpc -. engine) /. 1e3);
    solve_ladder spans ~seed inst;
    Ladder.recover out spans (Stacks.recover_root ~seed);
    summarize ~workload ~p50_ms:(Option.get p50_untraced) ~traced_p50_ms:(Spans.median load.Stacks.lat_ms)
      [
        ("server", rpc -. engine);
        ("engine", engine -. session);
        ("session", session -. journal -. incremental);
        ("journal", journal);
        ("incremental", incremental);
      ]
  | w -> invalid_arg w);
  group_commit_phase ~seed net ~seconds:(seconds *. 0.05);
  Ladder.inc_oracle out spans ~inst;
  let path = Printf.sprintf ".perfbench/spans-%s-seed%d.tsv" workload seed in
  Spans.write spans path;
  note "%d spans written to %s" spans.Spans.n path;
  attempted := spans.Spans.n

(* ------------------------------------------------------------------ *)
(* Result                                                              *)
(* ------------------------------------------------------------------ *)

(* The metric names and units BENCHMARK.json declares for this mode. *)
let declared ~trace =
  let text =
    let ic = open_in_bin "BENCHMARK.json" in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let key = if trace then "per_layer" else "end_to_end" in
  match Result.map (Json.member key) (Json.of_string text) with
  | Ok (Some (Json.List l)) ->
    List.map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.String n), Some (Json.String u) -> (n, u)
        | _ -> failwith "BENCHMARK.json: metric without name or unit")
      l
  | _ -> failwith ("BENCHMARK.json: no " ^ key ^ " list")

let finish ~trace =
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:nan (Hashtbl.find_opt out.Ladder.metrics name) in
        if not (Float.is_finite v) then problem (Printf.sprintf "metric %s was not measured" name);
        Printf.printf "%-34s %16.6f %s\n" name v unit;
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
      (declared ~trace)
  in
  List.iter print_endline (List.rev !notes);
  if not trace then
    Printf.printf "failed_ops_frac %.6f failed/attempted (%d failed or refused of %d attempted)\n"
      (float_of_int !failed /. float_of_int (max 1 !attempted))
      !failed !attempted;
  List.iter (Printf.printf "CHECK FAILED: %s\n") (List.rev !(out.Ladder.problems));
  let correct = !(out.Ladder.problems) = [] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (max 1 !attempted));
            ("failed", Json.Int !failed);
            ("metrics", Json.Obj metrics);
          ]));
  exit (if correct then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let child_root = ref "" in
  Arg.parse
    [
      ("--recover-child", Arg.Set_string child_root, "DIR  (internal) time recoveries of DIR");
      ("--workload", Arg.Set_string workload, "solve-static | churn-durable");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  measuring time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  let seed = !seed and seconds = !seconds and trace = !trace = 1 in
  if !child_root <> "" then recover_child !child_root ~seconds;
  if not (List.mem !workload [ "solve-static"; "churn-durable" ]) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  Stacks.init_scratch ();
  if trace then traced !workload ~seed ~seconds
  else begin
    (match !workload with
    | "solve-static" -> solve_static ~seed ~seconds
    | _ -> churn_durable ~seed ~seconds);
    set "rss_peak_mb" (Float.max (rss_peak_mb ()) !child_rss_mb)
  end;
  finish ~trace
