(* Exact-path bench and CI perf-regression gate.

   Seeded product-graph instances (the paper generator's pattern/data pairs
   pushed through the Theorem-5.1 compatibility-graph construction) solved
   to proven optimality by the legacy colouring B&B and the bitset MWC
   engine; the two must agree on every optimum. Every (instance, engine)
   result becomes gate rows (nodes, edges, optimum and steps exact,
   seconds with the time slack), and the engine guards are floor rows on
   the totals: the MWC engine's step speedup over legacy (bound 10 in the
   checked-in baseline) and its total wall-time speedup (bound 1: strictly
   faster). See gate.ml for the comparison rule. *)

module D = Phom_graph.Digraph
module G = Phom_graph.Generators
module Budget = Phom_graph.Budget
module Labelsim = Phom_sim.Labelsim
module Ungraph = Phom_wis.Ungraph
module Wis = Phom_wis.Wis
module Pool = Phom_parallel.Pool

type row = {
  name : string;
  engine : string;  (** "legacy" or "mwc" *)
  nodes : int;
  edges : int;
  optimum : float;
  steps : int;
  seconds : float;
}

(* a tracked instance: the product graph of a seeded Erdős–Rényi
   pattern/data pair over a small label pool with graded similarities.
   Unlike the paper generator's pattern⊆data pairs (where greedy finds the
   planted optimum immediately and both engines terminate in a handful of
   nodes), independent pattern/data graphs leave many incomparable
   near-optimal mappings — the regime where the branch and bound actually
   branches. *)
let product_instance ~seed ~n1 ~m1 ~n2 ~m2 ~nlabels ~xi ~injective ~weighted =
  let rng = Random.State.make [| seed; n1; n2; (if injective then 1 else 0) |] in
  let labels = [| "A"; "B"; "C"; "D"; "E" |] in
  let lbl _ = labels.(Random.State.int rng (min nlabels (Array.length labels))) in
  let g1 = G.erdos_renyi ~rng ~n:n1 ~m:m1 ~labels:lbl in
  (* the data graph is a DAG: acyclic reachability keeps tc2 sparse enough
     that no full embedding of the (cyclic, dense) pattern exists, so the
     optimum sits strictly below n1 and neither engine closes at the root *)
  let g2 = G.random_dag ~rng ~n:n2 ~m:m2 ~labels:lbl in
  (* graded similarity: same-label pairs clear xi at one of four grades,
     cross-label pairs rarely do — candidate rows stay wide enough to force
     real search *)
  let mat =
    Phom_sim.Simmat.of_fun ~n1 ~n2 (fun v u ->
        let base = if D.label g1 v = D.label g2 u then 0.55 else 0.2 in
        min 1. (base +. (0.15 *. float_of_int (Random.State.int rng 4))))
  in
  let t = Phom.Instance.make ~g1 ~g2 ~mat ~xi () in
  let weights =
    if weighted then
      Some (Array.init (D.n g1) (fun i -> 0.5 +. (float_of_int (i mod 4) /. 4.)))
    else None
  in
  (Phom_wis.Product.build ~injective ?weights ~g1:t.Phom.Instance.g1
     ~tc2:t.Phom.Instance.tc2 ~mat:t.Phom.Instance.mat ~xi:t.Phom.Instance.xi
     ())
    .Phom_wis.Product.graph

(* the tracked sizes: large enough that the legacy engine sweats for its
   proof, small enough that it still reaches optimality in CI minutes *)
let tracked ~seed =
  [
    ( "card-12x20",
      product_instance ~seed ~n1:12 ~m1:34 ~n2:20 ~m2:44 ~nlabels:2 ~xi:0.5
        ~injective:false ~weighted:false );
    ( "card-14x20",
      product_instance ~seed ~n1:14 ~m1:60 ~n2:20 ~m2:34 ~nlabels:1 ~xi:0.5
        ~injective:false ~weighted:false );
    ( "card11-12x20",
      product_instance ~seed ~n1:12 ~m1:36 ~n2:20 ~m2:42 ~nlabels:2 ~xi:0.5
        ~injective:true ~weighted:false );
    ( "card11-13x22",
      product_instance ~seed ~n1:13 ~m1:42 ~n2:22 ~m2:46 ~nlabels:2 ~xi:0.5
        ~injective:true ~weighted:false );
    ( "card11-14x20",
      product_instance ~seed ~n1:14 ~m1:64 ~n2:20 ~m2:32 ~nlabels:1 ~xi:0.5
        ~injective:true ~weighted:false );
    ( "card11-16x22",
      product_instance ~seed ~n1:16 ~m1:84 ~n2:22 ~m2:36 ~nlabels:1 ~xi:0.5
        ~injective:true ~weighted:false );
  ]

let weighted_tracked ~seed =
  [
    ( "sim-14x20",
      product_instance ~seed ~n1:14 ~m1:60 ~n2:20 ~m2:34 ~nlabels:1 ~xi:0.5
        ~injective:false ~weighted:true );
    ( "sim11-16x22",
      product_instance ~seed ~n1:16 ~m1:84 ~n2:22 ~m2:36 ~nlabels:1 ~xi:0.5
        ~injective:true ~weighted:true );
  ]

(* generous safety net: every tracked instance finishes well under 10⁵
   steps on either engine; the cap only exists so a future regression
   fails loudly instead of hanging CI *)
let step_cap = 20_000_000

let run_engine name engine g solve =
  Printf.eprintf "bench exact: %-12s %-6s %3d nodes %5d edges...\n%!" name
    engine (Ungraph.n g) (Ungraph.nb_edges g);
  let b = Budget.create ~steps:step_cap () in
  let (value, status), seconds = Util.timed (fun () -> solve b g) in
  if status <> Budget.Complete then begin
    Printf.eprintf
      "bench exact: %s engine did not prove optimality on %s within %d steps\n"
      engine name step_cap;
    exit 1
  end;
  {
    name;
    engine;
    nodes = Ungraph.n g;
    edges = Ungraph.nb_edges g;
    optimum = value;
    steps = Budget.steps_used b;
    seconds;
  }

let legacy_solve b g =
  let c, status = Wis.exact_max_clique_legacy ~budget:b g in
  (float_of_int (List.length c), status)

let mwc_solve ?pool b g =
  let c, status = Wis.exact_max_clique ?pool ~budget:b g in
  (float_of_int (List.length c), status)

let mwc_weight_solve ?pool b g =
  let _, w, status = Wis.exact_max_weight_clique ?pool ~budget:b g in
  (w, status)

(* one (instance, engine) result as gate rows: the answer and the work to
   prove it are exact, the wall-time carries the slack *)
let gate_rows suite r =
  let row = Gate.row suite (r.name ^ "/" ^ r.engine) in
  [
    row "nodes" Work (float_of_int r.nodes);
    row "edges" Work (float_of_int r.edges);
    row "optimum" Work r.optimum;
    row "steps" Work (float_of_int r.steps);
    row "seconds" Time r.seconds;
  ]

let run ~seed ~jobs ~out ?check () =
  Util.heading "Exact path: legacy colouring B&B vs bitset MWC engine";
  let with_pool f =
    if jobs <= 1 then f None
    else Pool.with_pool ~domains:jobs (fun p -> f (Some p))
  in
  with_pool @@ fun pool ->
  let rows = ref [] in
  let add r = rows := r :: !rows in
  (* cardinality instances: both engines, same optimum required *)
  List.iter
    (fun (name, g) ->
      let legacy = run_engine name "legacy" g legacy_solve in
      let mwc = run_engine name "mwc" g (mwc_solve ?pool) in
      if legacy.optimum <> mwc.optimum then begin
        Printf.eprintf
          "bench exact: engines disagree on %s: legacy %.0f vs mwc %.0f\n" name
          legacy.optimum mwc.optimum;
        exit 1
      end;
      add legacy;
      add mwc)
    (tracked ~seed);
  (* weighted instances: the new engine only (the legacy engine has no
     weight objective); tracked by the baseline gate all the same *)
  List.iter
    (fun (name, g) -> add (run_engine name "mwc" g (mwc_weight_solve ?pool)))
    (weighted_tracked ~seed);
  let rows = List.rev !rows in
  let sum f pred =
    List.fold_left (fun acc r -> if pred r then acc +. f r else acc) 0. rows
  in
  let is_card_legacy r = r.engine = "legacy" in
  let is_card_mwc r =
    r.engine = "mwc" && List.exists (fun b -> b.name = r.name && b.engine = "legacy") rows
  in
  let legacy_steps = sum (fun r -> float_of_int r.steps) is_card_legacy in
  let mwc_steps = sum (fun r -> float_of_int r.steps) is_card_mwc in
  let legacy_seconds = sum (fun r -> r.seconds) is_card_legacy in
  let mwc_seconds = sum (fun r -> r.seconds) is_card_mwc in
  Util.table
    [ "instance"; "engine"; "nodes"; "edges"; "optimum"; "steps"; "seconds" ]
    (List.map
       (fun r ->
         [
           r.name;
           r.engine;
           string_of_int r.nodes;
           string_of_int r.edges;
           Printf.sprintf "%.2f" r.optimum;
           string_of_int r.steps;
           Util.seconds r.seconds;
         ])
       rows);
  let steps_speedup = Gate.ratio legacy_steps mwc_steps in
  let time_speedup = Gate.ratio legacy_seconds mwc_seconds in
  Util.note "steps: legacy %.0f vs mwc %.0f (%.1fx); time: %ss vs %ss (%.1fx)"
    legacy_steps mwc_steps steps_speedup
    (Util.seconds legacy_seconds) (Util.seconds mwc_seconds) time_speedup;
  (* the engine guards: MWC must take far fewer steps than legacy and be
     faster in total on the cardinality instances *)
  let total = Gate.row "exact" "all" in
  Gate.finish ~out ?check
    (List.concat_map (gate_rows "exact") rows
    @ [
        total "legacy_steps" Work legacy_steps;
        total "mwc_steps" Work mwc_steps;
        total "legacy_seconds" Time legacy_seconds;
        total "mwc_seconds" Time mwc_seconds;
        total "steps_speedup" Floor steps_speedup;
        total "time_speedup" Floor time_speedup;
      ])
