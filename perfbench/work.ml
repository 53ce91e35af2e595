(* The three workloads: their input files and their request streams.

   phomd only ever sees the .phg/.phs files written here and the request
   lines; the benchmark keeps its own copy of every graph and matrix for
   the correctness check.

   Inputs and seeds. The graphs of each workload, and the edges the churn
   walk adds and deletes, come from a fixed instance seed
   ([instance_seed]); the run's --seed draws the order of the solves in
   each round and the problems of the churn solves. So a second seed gives
   the same request mix and the same sizes in another order (main.exe
   --describe prints the mix of a seed), and quality_mean and
   complete_ratio repeat exactly across seeds. With the edit walk fixed,
   every run also does the same closure upkeep.

   Streams come in rounds; each round holds the same multiset of request
   kinds on every seed, and a run measures a fixed number of whole rounds
   (its --seconds at the reference speed of calib.ml).

   Every workload has writes, because every end-to-end metric is reported
   on every workload. serve-churn's are its edits, loads and unloads.
   serve-warm and exact re-send the load of a graph or matrix that is
   already loaded, as a router does when it replays its load log to a
   replica: the file is parsed and checksummed but nothing changes, so
   every cached artifact stays warm. A write tail is only steady inside
   one kind of write, so each workload re-sends one kind of file, and few
   enough of them that the tail stays out of the scheduling jitter
   (perfbench/NOTES.md has the measurements).

   Each definition records why the workload exists and which layer metric
   of the traced run should move which end-to-end metric on it. *)

module D = Phom_graph.Digraph
module G = Phom_graph.Generators
module IO = Phom_graph.Graph_io
module Simmat = Phom_sim.Simmat

type kind = Load | Unload | Edit | Solve

let is_write = function Load | Unload | Edit -> true | Solve -> false

type step = { line : string; kind : kind }

type content = Graph of D.t | Mat of Simmat.t

type t = {
  name : string;
  files : (string, content) Hashtbl.t;
      (** path -> the content written there: the benchmark's own copy *)
  setup : step list;  (** one daemon life's loads, then its warm-up pass *)
  round : int -> step list;
      (** round [i] of the measured stream; rounds are drawn in order *)
  rounds_per_second : float;
      (** rounds a second at reference speed: a run of [s] seconds measures
          a fixed number of whole rounds, so every count, the tail
          percentiles, quality_mean and complete_ratio never depend on how
          fast the machine happened to be *)
}

let rounds w ~seconds =
  max 1 (int_of_float (Float.round (float_of_int seconds *. w.rounds_per_second)))

let instance_seed = 1
let problems = [| "card"; "card11"; "sim"; "sim11" |]
let solve_steps = 200_000
let exact_steps = 100_000

let save files ~dir name content =
  let path =
    Filename.concat dir
      (name ^ match content with Graph _ -> ".phg" | Mat _ -> ".phs")
  in
  (match content with
  | Graph g -> IO.save path g
  | Mat m -> Simmat.save path m);
  Hashtbl.replace files path content;
  {
    line =
      Printf.sprintf "load %s %s %s"
        (match content with Graph _ -> "graph" | Mat _ -> "mat")
        name path;
    kind = Load;
  }

let shingle_solve problem g1 g2 =
  {
    line =
      Printf.sprintf "solve %s %s %s --sim shingles --xi 0.5 --steps %d"
        problem g1 g2 solve_steps;
    kind = Solve;
  }

(* [a] in an order drawn from [rng] *)
let shuffled rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* the solves of a round, in a drawn order, with [writes.(k)] sent after
   every [every]-th solve *)
let interleave ~every solves writes =
  List.concat
    (List.mapi
       (fun i s -> if (i + 1) mod every = 0 then [ s; writes.(((i + 1) / every) - 1) ] else [ s ])
       (Array.to_list solves))

(* ---- serve-warm ----------------------------------------------------------

   Why: three resident pairs from the paper generator (m = 60, 120, 200,
   noise 0.5; n2 about 1.5k/3.3k/5.4k nodes) queried over and over with
   --sim shingles --xi 0.5. After the warm-up pass every artifact is a
   cache hit, so the time goes to Direct search and to the key of the
   candidate-cache hit (Catalog.pair_sig walks all n1*n2 similarity cells
   on every hit). Closure and similarity do no work. A round is the 12
   pair/problem solves in a drawn order, then a reload of the m = 120
   pattern.

   layer metric                                   moves            here
   api.solve_ms, api.steps.mean                   solve_*          most of p50
   catalog.candidates_hit_ms, ..._hit_ratio       solve_p50, rps   a hit every time
   pool.hop_ms, daemon.rtt_overhead_ms            solve_p50        largest share
   catalog.load_graph_ms, graph_io.load_ms        write_*          reloads
   catalog.closure_ms / similarity_ms,
   bounded_closure.relation_ms                    setup_s          warm-up only
   lru.*                                          solve_*, rss     hits only *)
let serve_warm ~seed ~dir =
  let files = Hashtbl.create 16 in
  let pairs =
    List.map
      (fun m ->
        let rng = Random.State.make [| instance_seed; m; 1 |] in
        let g1, pool = G.paper_pattern ~rng ~m in
        let g2 = G.paper_data ~rng ~pool ~noise:0.5 g1 in
        let p = Printf.sprintf "w%dp" m and d = Printf.sprintf "w%dd" m in
        (p, d, save files ~dir p (Graph g1), save files ~dir d (Graph g2)))
      [ 60; 120; 200 ]
  in
  let combos =
    Array.of_list
      (List.concat_map
         (fun (p, d, _, _) ->
           Array.to_list (Array.map (fun pr -> shingle_solve pr p d) problems))
         pairs)
  in
  let loads = List.concat_map (fun (_, _, lp, ld) -> [ lp; ld ]) pairs in
  let _, _, reload, _ = List.nth pairs 1 in
  {
    name = "serve-warm";
    files;
    setup = loads @ Array.to_list combos;
    round =
      (fun i ->
        let rng = Random.State.make [| seed; i; 2 |] in
        interleave ~every:12 (shuffled rng combos) [| reload |]);
    rounds_per_second = 4.9;
  }

(* ---- serve-churn ---------------------------------------------------------

   Why: writes beside reads. One resident pair (m = 120, noise 0.5) and a
   stream that alternates a write with a solve. Writes are addedge/deledge
   on the data graph: a random walk of four adds and four deletes per
   round (so at most 8, in fact 4, added edges are ever outstanding), where
   a delete undoes the last add half the time (restoring an earlier
   content signature, so the candidate table can be a hit again) and
   otherwise removes an older outstanding add. Each round then loads a
   fresh pattern (m 40-80, one in ten writes), solves it twice and unloads
   it. The walk ends each round back on the original data graph, so the
   fresh patterns always meet the same data and their answers repeat.
   Every edit makes the next solve's candidate table a miss; every fresh
   pattern needs its Shingle matrix.

   layer metric                                   moves            here
   catalog.edit_ms, incremental.update_ms         write_*          yes
   catalog.load_graph_ms, graph_io.load_ms,
   catalog.unload_ms                              write_*          fresh patterns
   catalog.candidates_miss_ms, instance.*         solve_p50        miss after edits
   catalog.similarity_ms, shingle.matrix_ms       solve_p50        fresh patterns
   api.solve_ms (warm-started)                    solve_*          yes
   catalog.warm_recall_ratio, lru.*               solve_*, rss     yes *)
let churn_patterns = 10

let serve_churn ~seed ~dir =
  let files = Hashtbl.create 64 in
  let rng = Random.State.make [| instance_seed; 120; 3 |] in
  let g1, pool = G.paper_pattern ~rng ~m:120 in
  let g2 = G.paper_data ~rng ~pool ~noise:0.5 g1 in
  let lp = save files ~dir "cp" (Graph g1) and ld = save files ~dir "cd" (Graph g2) in
  (* the fresh patterns, in a fixed cycle *)
  let fresh =
    Array.init churn_patterns (fun i ->
        let rng = Random.State.make [| instance_seed; i; 5 |] in
        fst (G.paper_pattern ~rng ~m:(40 + Random.State.int rng 41)))
  in
  let n = D.n g2 in
  let rng = Random.State.make [| instance_seed; 4 |] in
  let rec fresh_edge ~except =
    let v = Random.State.int rng n and w = Random.State.int rng n in
    if v = w || D.has_edge g2 v w || List.mem (v, w) except then fresh_edge ~except else (v, w)
  in
  let edit op (v, w) =
    {
      line = Printf.sprintf "%s cd %d %d" (match op with `Add -> "addedge" | `Del -> "deledge") v w;
      kind = Edit;
    }
  in
  let round i =
    let prng = Random.State.make [| seed; i; 6 |] in
    let order = shuffled prng (Array.append problems problems) in
    let added = ref [] (* outstanding adds, most recent first *) in
    (* a random ordering of four adds and four deletes that never deletes
       more than was added *)
    let adds = ref 4 and dels = ref 4 in
    let edits =
      List.init 8 (fun _ ->
          let k = List.length !added in
          if !adds > 0 && (k = 0 || Random.State.bool rng) then begin
            decr adds;
            let e = fresh_edge ~except:!added in
            added := e :: !added;
            edit `Add e
          end
          else begin
            decr dels;
            let e =
              if k = 1 || Random.State.bool rng then List.hd !added
              else List.nth !added (1 + Random.State.int rng (k - 1))
            in
            added := List.filter (fun x -> x <> e) !added;
            edit `Del e
          end)
    in
    let f = Printf.sprintf "f%d" i and p = i mod churn_patterns in
    List.concat
      (List.mapi (fun j e -> [ e; shingle_solve order.(j) "cp" "cd" ]) edits)
    @ [
        save files ~dir f (Graph fresh.(p));
        shingle_solve problems.(p mod 4) f "cd";
        shingle_solve problems.((p + 2) mod 4) f "cd";
        { line = "unload " ^ f; kind = Unload };
      ]
  in
  {
    name = "serve-churn";
    files;
    setup = [ lp; ld ] @ Array.to_list (Array.map (fun pr -> shingle_solve pr "cp" "cd") problems);
    round;
    rounds_per_second = 5.9;
  }

(* ---- exact ---------------------------------------------------------------

   Why: the only workload where the exact engines do the work. Six
   instances solved with --algorithm exact --steps 100000 over all four
   problems, with named similarity matrices. Four are Erdős–Rényi patterns
   against random-DAG data with graded similarities (12x20, 14x20, 16x22,
   18x26), built like bench exact's tracked set; the branch and bound
   works on them. Two are low-width patterns (tree 20x26, series-parallel
   16x26) that Api routes to the tree-decomposition DP. The serve
   artifacts are tiny here. A round is the 24 instance/problem solves in a
   drawn order, with a reload of one of the six matrices (in turn, all of
   similar size) after every second.

   layer metric                                   moves                      here
   api.solve_ms, api.steps.mean,
   api.exhausted_ratio                            solve_*, complete_ratio,   nearly all
                                                  quality_mean
   api.dp_routed_ratio, dp.width.mean             solve_*, complete_ratio    2 of 6
   instance.candidate_pairs.mean                  solve_*                    yes
   catalog.load_mat_ms                            write_*                    reloads
   pool.hop_ms, daemon.rtt_overhead_ms            solve_p50                  smallest share *)
let graded ~rng ~g1 ~g2 ~cross =
  Simmat.of_fun ~n1:(D.n g1) ~n2:(D.n g2) (fun v u ->
      let base = if D.label g1 v = D.label g2 u then 0.55 else cross in
      min 1. (base +. (0.15 *. float_of_int (Random.State.int rng 4))))

let exact ~seed ~dir =
  let files = Hashtbl.create 32 in
  let er name ~n1 ~m1 ~n2 ~m2 ~nlabels =
    let rng = Random.State.make [| instance_seed; n1; n2; 6 |] in
    let labels = [| "A"; "B"; "C"; "D"; "E" |] in
    let lbl _ = labels.(Random.State.int rng nlabels) in
    let g1 = G.erdos_renyi ~rng ~n:n1 ~m:m1 ~labels:lbl in
    let g2 = G.random_dag ~rng ~n:n2 ~m:m2 ~labels:lbl in
    (name, g1, g2, graded ~rng ~g1 ~g2 ~cross:0.2)
  in
  let low name kind ~n1 ~n2 ~m2 =
    let rng = Random.State.make [| instance_seed; n1; n2; 7 |] in
    let labels = [| "A"; "B"; "C" |] in
    let lbl _ = labels.(Random.State.int rng 3) in
    let g1 =
      match kind with
      | `Tree -> G.random_tree ~rng ~n:n1 ~labels:lbl
      | `Sp -> G.series_parallel ~rng ~n:n1 ~labels:lbl
    in
    let g2 = G.random_dag ~rng ~n:n2 ~m:m2 ~labels:lbl in
    (name, g1, g2, graded ~rng ~g1 ~g2 ~cross:0.25)
  in
  let instances =
    [
      er "e12" ~n1:12 ~m1:34 ~n2:20 ~m2:44 ~nlabels:2;
      er "e14" ~n1:14 ~m1:60 ~n2:20 ~m2:34 ~nlabels:1;
      er "e16" ~n1:16 ~m1:84 ~n2:22 ~m2:36 ~nlabels:1;
      er "e18" ~n1:18 ~m1:100 ~n2:26 ~m2:44 ~nlabels:1;
      low "t20" `Tree ~n1:20 ~n2:26 ~m2:58;
      low "s16" `Sp ~n1:16 ~n2:26 ~m2:56;
    ]
  in
  let loads =
    List.concat_map
      (fun (name, g1, g2, mat) ->
        [
          save files ~dir (name ^ "p") (Graph g1);
          save files ~dir (name ^ "d") (Graph g2);
          save files ~dir (name ^ "m") (Mat mat);
        ])
      instances
  in
  let solve problem name =
    {
      line =
        Printf.sprintf
          "solve %s %sp %sd --mat %sm --xi 0.5 --algorithm exact --steps %d"
          problem name name name exact_steps;
      kind = Solve;
    }
  in
  let combos =
    Array.of_list
      (List.concat_map
         (fun (name, _, _, _) ->
           Array.to_list (Array.map (fun p -> solve p name) problems))
         instances)
  in
  let mat_loads = Array.of_list (List.filteri (fun i _ -> i mod 3 = 2) loads) in
  {
    name = "exact";
    files;
    setup = loads @ List.map (fun (name, _, _, _) -> solve "card" name) instances;
    round =
      (fun i ->
        let rng = Random.State.make [| seed; i; 8 |] in
        interleave ~every:2 (shuffled rng combos) (Array.append mat_loads mat_loads));
    rounds_per_second = 0.8;
  }

let names = [ "serve-warm"; "serve-churn"; "exact" ]

let make name ~seed ~dir =
  match name with
  | "serve-warm" -> serve_warm ~seed ~dir
  | "serve-churn" -> serve_churn ~seed ~dir
  | "exact" -> exact ~seed ~dir
  | other ->
      invalid_arg
        (Printf.sprintf "unknown workload %s (one of %s)" other
           (String.concat ", " names))
