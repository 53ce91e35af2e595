(* Benchmark harness: one target per table and figure of the paper's
   evaluation section (see DESIGN.md's per-experiment index).

   dune exec bench/main.exe            -- everything, reduced scale
   dune exec bench/main.exe -- --full  -- everything, paper scale (slow!)
   dune exec bench/main.exe -- table3  -- a single experiment
   dune exec bench/main.exe -- fig5 --axis noise
   dune exec bench/main.exe -- micro   -- bechamel micro-benchmarks *)

open Cmdliner
module Dataset = Phom_web.Dataset

let full_arg =
  Arg.(value & flag & info [ "full" ] ~doc:"Run at the paper's scale (much slower).")

let seed_arg = Arg.(value & opt int 2010 & info [ "seed" ] ~doc:"Random seed.")

let scale_of_full full = if full then Dataset.Full else Dataset.Reduced 10

let versions_arg =
  Arg.(value & opt int 11 & info [ "versions" ] ~doc:"Archive snapshots per site.")

let mcs_limit_arg =
  Arg.(
    value & opt (some float) None
    & info [ "mcs-limit" ] ~doc:"cdkMCS time limit in seconds (default 3, 60 with --full).")

let mcs_limit full = function Some l -> l | None -> if full then 60. else 3.

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains for the parallel runtime. Default 1 \
              (sequential), so published numbers stay comparable unless \
              parallelism is asked for explicitly.")

let require_jobs jobs =
  if jobs < 1 then begin
    Printf.eprintf "bench: --jobs must be at least 1 (got %d)\n" jobs;
    exit 1
  end

let with_pool jobs f =
  require_jobs jobs;
  if jobs = 1 then f None
  else Phom_parallel.Pool.with_pool ~domains:jobs (fun p -> f (Some p))

let axis_arg =
  let choices =
    Arg.enum [ ("size", Fig56.Size); ("noise", Fig56.Noise); ("xi", Fig56.Xi) ]
  in
  Arg.(
    value & opt choices Fig56.Size
    & info [ "axis" ] ~docv:"AXIS" ~doc:"Sweep axis: $(b,size), $(b,noise) or $(b,xi).")

let pick_arg =
  let choices = Arg.enum [ ("best", `Best_sim); ("first", `First) ] in
  Arg.(
    value & opt choices `Best_sim
    & info [ "pick" ] ~docv:"PICK"
        ~doc:"greedyMatch candidate heuristic: $(b,best) similarity (default) \
              or the paper-literal arbitrary $(b,first).")

let run_table2 full seed = Table2.run ~scale:(scale_of_full full) ~seed

let fast_sf_arg =
  Arg.(
    value & flag
    & info [ "fast-sf" ]
        ~doc:"Run the SF baseline with the factorized products instead of \
              Melnik's pairwise-graph walk (same results, much faster; see \
              ablation A5).")

let sf_impl_of fast =
  if fast then Phom_sim.Similarity_flooding.Factorized
  else Phom_sim.Similarity_flooding.Edge_pairs

let run_table3 full seed versions limit fast_sf jobs =
  with_pool jobs (fun pool ->
      Table3.run ~sf_impl:(sf_impl_of fast_sf) ?pool ~scale:(scale_of_full full)
        ~seed ~versions ~mcs_time_limit:(mcs_limit full limit) ())

let run_fig ~figure full seed axis pick jobs =
  let cfg = Fig56.default_cfg ~pick ~full ~axis ~seed () in
  let results = with_pool jobs (fun pool -> Fig56.sweep ?pool ~cfg ~axis ()) in
  match figure with
  | `Five -> Fig56.print_accuracy ~axis results
  | `Six -> Fig56.print_time ~axis results

let run_all full seed versions limit jobs =
  with_pool jobs @@ fun pool ->
  Table2.run ~scale:(scale_of_full full) ~seed;
  Table3.run ?pool ~scale:(scale_of_full full) ~seed ~versions
    ~mcs_time_limit:(mcs_limit full limit) ();
  List.iter
    (fun axis ->
      let cfg = Fig56.default_cfg ~full ~axis ~seed () in
      let results = Fig56.sweep ?pool ~cfg ~axis () in
      Fig56.print_accuracy ~axis results;
      Fig56.print_time ~axis results)
    [ Fig56.Size; Fig56.Noise; Fig56.Xi ];
  Ablations.run ~seed;
  Micro.run ()

let table2_cmd =
  Cmd.v (Cmd.info "table2" ~doc:"Reproduce Table 2 (web graphs and skeletons).")
    Term.(const run_table2 $ full_arg $ seed_arg)

let table3_cmd =
  Cmd.v
    (Cmd.info "table3" ~doc:"Reproduce Table 3 (accuracy/scalability, real-life data).")
    Term.(
      const run_table3 $ full_arg $ seed_arg $ versions_arg $ mcs_limit_arg
      $ fast_sf_arg $ jobs_arg)

let fig5_cmd =
  Cmd.v
    (Cmd.info "fig5" ~doc:"Reproduce Figure 5 (accuracy on synthetic data).")
    Term.(
      const (fun f s a p j -> run_fig ~figure:`Five f s a p j)
      $ full_arg $ seed_arg $ axis_arg $ pick_arg $ jobs_arg)

let fig6_cmd =
  Cmd.v
    (Cmd.info "fig6" ~doc:"Reproduce Figure 6 (scalability on synthetic data).")
    Term.(
      const (fun f s a p j -> run_fig ~figure:`Six f s a p j)
      $ full_arg $ seed_arg $ axis_arg $ pick_arg $ jobs_arg)

let micro_cmd =
  Cmd.v (Cmd.info "micro" ~doc:"Bechamel micro-benchmarks of the kernels.")
    Term.(const (fun () -> Micro.run ()) $ const ())

let ablations_cmd =
  Cmd.v
    (Cmd.info "ablations" ~doc:"Ablation benches for the design choices.")
    Term.(const (fun seed -> Ablations.run ~seed) $ seed_arg)

(* the gate surface every suite shares: where its rows go, and the
   checked-in baseline they are compared with (see gate.ml) *)
let out_arg suite =
  Arg.(
    value
    & opt string (Printf.sprintf "BENCH_%s.json" suite)
    & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the JSON rows.")

let check_arg suite =
  Arg.(
    value & opt (some file) None
    & info [ "check-against" ] ~docv:"FILE"
        ~doc:
          (Printf.sprintf
             "Baseline to gate the run against (the checked-in one is \
              bench/baselines/BENCH_%s.json): work rows must match it \
              exactly, time rows within +20%% and 0.25 s, guard rows must \
              clear its bounds. Fails on any violation."
             suite))

let parallel_cmd =
  let run seed jobs out check =
    require_jobs jobs;
    Parallel_bench.run ~jobs ~seed ~out ?check ()
  in
  Cmd.v
    (Cmd.info "parallel"
       ~doc:"Sequential vs --jobs N wall-clock on the pool-accelerated \
             workloads; writes BENCH_parallel.json.")
    Term.(
      const run $ seed_arg
      $ Arg.(
          value
          & opt int (Domain.recommended_domain_count ())
          & info [ "jobs"; "j" ] ~docv:"N"
              ~doc:"Worker domains for the parallel side of the comparison.")
      $ out_arg "parallel" $ check_arg "parallel")

let serve_cmd =
  let sizes_arg =
    Arg.(
      value & opt (list int) [ 20; 40; 80 ]
      & info [ "sizes" ] ~docv:"M,M,..."
          ~doc:"Pattern sizes (paper generator parameter m) to query at.")
  in
  let noise_arg =
    Arg.(value & opt float 0.1 & info [ "noise" ] ~doc:"Noise rate for the data graphs.")
  in
  let repeats_arg =
    Arg.(value & opt int 5 & info [ "repeats" ] ~doc:"Warm queries per pair.")
  in
  let clients_arg =
    Arg.(
      value & opt (list int) [ 1; 4; 8 ]
      & info [ "clients" ] ~docv:"N,N,..."
          ~doc:"Concurrent client counts for the socket latency phase.")
  in
  let run seed sizes noise repeats clients out =
    if List.exists (fun m -> m < 1) sizes then begin
      prerr_endline "bench: --sizes must all be at least 1";
      exit 1
    end;
    if repeats < 1 then begin
      Printf.eprintf "bench: --repeats must be at least 1 (got %d)\n" repeats;
      exit 1
    end;
    if clients = [] || List.exists (fun c -> c < 1) clients then begin
      prerr_endline "bench: --clients must name at least one count >= 1";
      exit 1
    end;
    Serve_bench.run ~seed ~sizes ~noise ~repeats ~clients ~out ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Daemon cold vs warm query latency on the Fig. 5/6 synthetic \
             graphs, plus p50/p99 latency under concurrent socket clients; \
             writes BENCH_serve.json.")
    Term.(
      const run $ seed_arg $ sizes_arg $ noise_arg $ repeats_arg $ clients_arg
      $ out_arg "serve")

(* a gated suite whose workload is fixed by its baseline: only the seed,
   the report path and the baseline are settable *)
let gated_cmd suite ~doc
    (run : seed:int -> out:string -> ?check:string -> unit -> unit) =
  Cmd.v (Cmd.info suite ~doc)
    Term.(
      const (fun seed out check -> run ~seed ~out ?check ())
      $ seed_arg $ out_arg suite $ check_arg suite)

let recovery_cmd =
  gated_cmd "recovery" Recovery_bench.run
    ~doc:"Durable-daemon restart cost: cold start (load + compute) vs \
          recovered start (snapshot + journal replay) to the first answer; \
          writes BENCH_recovery.json."

let incr_cmd =
  gated_cmd "incr" Incr_bench.run
    ~doc:"Dynamic-graph bench: addedge/deledge + warm re-solve vs unload + \
          reload + cold solve on the tracked seeded instances; writes \
          BENCH_incr.json and fails unless both paths agree on every \
          answer."

(* the exact and dp benches pin their own seeds: the tracked instances (and
   the checked-in baselines) are defined by them, unlike the survey benches
   where the seed only flavours the workload *)
let pinned_seed_arg seed =
  Arg.(value & opt int seed & info [ "seed" ] ~doc:"Random seed.")

let exact_cmd =
  let run seed jobs out check =
    require_jobs jobs;
    Exact_bench.run ~seed ~jobs ~out ?check ()
  in
  Cmd.v
    (Cmd.info "exact"
       ~doc:"Exact-path engine bench: legacy colouring B&B vs the bitset MWC \
             engine on seeded product-graph instances, steps-to-optimum and \
             wall-clock; writes BENCH_exact.json.")
    Term.(
      const run $ pinned_seed_arg 2 $ jobs_arg $ out_arg "exact"
      $ check_arg "exact")

let dp_cmd =
  let run seed jobs out check =
    require_jobs jobs;
    Dp_bench.run ~seed ~jobs ~out ?check ()
  in
  Cmd.v
    (Cmd.info "dp"
       ~doc:"Tree-decomposition DP vs the MWC engine on seeded low-treewidth \
             instances, steps-to-optimum and wall-clock; writes \
             BENCH_dp.json.")
    Term.(
      const run $ pinned_seed_arg 7 $ jobs_arg $ out_arg "dp" $ check_arg "dp")

let obs_cmd =
  gated_cmd "obs" Obs_bench.run
    ~doc:"Metrics-on vs metrics-off wall-clock on the daemon's warm-serve \
          path; writes BENCH_obs.json."

let fleet_cmd =
  gated_cmd "fleet" Fleet_bench.run
    ~doc:"Routed latency against 1 vs 3 phomd replicas over loopback TCP, \
          plus the failover blip when a replica is killed -9 mid-workload; \
          writes BENCH_fleet.json and fails when any routed request errors."

let all_term = Term.(const run_all $ full_arg $ seed_arg $ versions_arg $ mcs_limit_arg $ jobs_arg)

let all_cmd = Cmd.v (Cmd.info "all" ~doc:"Every table and figure (default).") all_term

let () =
  let doc = "reproduce every table and figure of Fan et al., VLDB 2010" in
  let info = Cmd.info "bench" ~doc in
  exit
    (Cmd.eval
       (Cmd.group ~default:all_term info
          [ table2_cmd; table3_cmd; fig5_cmd; fig6_cmd; ablations_cmd; micro_cmd;
            parallel_cmd; serve_cmd; recovery_cmd; obs_cmd; exact_cmd; dp_cmd;
            incr_cmd; fleet_cmd; all_cmd ]))
