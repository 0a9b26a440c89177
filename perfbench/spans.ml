(* Span store of the traced run, plus the order statistics every report
   uses.

   A span is one call into a layer's public entry point: the layer name,
   the kind of op (["arrive"], ["gtp"], ...), the id of the op in the
   seeded stream, and its start and end on the monotonic clock.  Spans
   are kept in memory while the run measures and written out as TSV when
   it ends, so recording costs two clock reads and an array store. *)

let now_ns () = Int64.to_int (Tdmd_obs.Clock.now_ns ())
let ms_of_ns ns = float_of_int ns /. 1e6
let us_of_ns ns = float_of_int ns /. 1e3

type t = {
  mutable layer : string array;
  mutable kind : string array;
  mutable op : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable n : int;
  lock : Mutex.t;  (* client threads record concurrently *)
}

let create () =
  let cap = 4096 in
  {
    layer = Array.make cap "";
    kind = Array.make cap "";
    op = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    n = 0;
    lock = Mutex.create ();
  }

let grow t =
  let cap = 2 * Array.length t.op in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.layer <- extend t.layer "";
  t.kind <- extend t.kind "";
  t.op <- extend t.op 0;
  t.start <- extend t.start 0;
  t.stop <- extend t.stop 0

let record t ~layer ~kind ~op ~start ~stop =
  Mutex.lock t.lock;
  if t.n = Array.length t.op then grow t;
  let i = t.n in
  t.layer.(i) <- layer;
  t.kind.(i) <- kind;
  t.op.(i) <- op;
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  t.n <- i + 1;
  Mutex.unlock t.lock

let time t ~layer ~kind ~op f =
  let start = now_ns () in
  let r = f () in
  record t ~layer ~kind ~op ~start ~stop:(now_ns ());
  r

(* Durations (ns) of one layer's spans, optionally of one kind. *)
let durations ?kind t layer =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if t.layer.(i) = layer && (match kind with None -> true | Some k -> t.kind.(i) = k)
    then acc := float_of_int (t.stop.(i) - t.start.(i)) :: !acc
  done;
  Array.of_list !acc

let write t path =
  let oc = open_out path in
  output_string oc "layer\tkind\top\tstart_ns\tend_ns\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%s\t%s\t%d\t%d\t%d\n" t.layer.(i) t.kind.(i) t.op.(i)
      t.start.(i) t.stop.(i)
  done;
  close_out oc

(* A growable float array. *)
module Fvec = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let b = Array.make (2 * v.len) 0.0 in
      Array.blit v.data 0 b 0 v.len;
      v.data <- b
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let to_array v = Array.sub v.data 0 v.len
end

(* ---- order statistics ---- *)

let percentile a p =
  if Array.length a = 0 then nan else Tdmd_prelude.Stats.percentile a p

let median a = percentile a 0.5

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Σ over an op mix of each kind's share times [f kind]. *)
let over_mix ~mix f =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 mix in
  List.fold_left (fun acc (kind, w) -> acc +. (w /. total *. f kind)) 0.0 mix

(* A layer's per-op time over an op mix: the median duration of each
   kind, weighted by that kind's share of the stream.  Medians keep one
   slow fsync from dominating; the fixed weights make layers measured
   on different replays of the same stream comparable. *)
let per_op_ns t layer ~mix = over_mix ~mix (fun kind -> median (durations ~kind t layer))

(* Split [values] into [windows] equal windows of [span] seconds by their
   [starts] (seconds) and apply [f] to each window's values. *)
let per_window ~windows ~span starts values f =
  let width = span /. float_of_int windows in
  let buckets = Array.make windows [] in
  Array.iteri
    (fun i start ->
      let b = max 0 (min (windows - 1) (int_of_float (start /. width))) in
      buckets.(b) <- values.(i) :: buckets.(b))
    starts;
  Array.map (fun b -> f (Array.of_list b)) buckets

(* A timing read from its per-window values.  The machine the benchmark
   targets is a shared 2-vCPU VM whose speed shifts by a third for one
   to ten seconds at a time, so how much of a run lands in slow
   stretches varies from run to run, and the median window with it.  A
   code change moves every window, the quiet ones too, so a timing is
   the window at [q] (by default [quiet_q]) from the good end: the 10th
   percentile of the windows when lower is better, the 90th when higher
   is. *)
let quiet_q = 0.1

let quiet ?(q = quiet_q) ~lower_better windows =
  percentile windows (if lower_better then q else 1.0 -. q)
