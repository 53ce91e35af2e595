(* Observability overhead bench: the <2% guard for the metrics layer.

   The workload is the daemon's warm-serve path — the hottest loop that
   crosses every instrumented seam (solver spans and counters, cache
   probes, request accounting) without artifact recomputation noise. The
   same batch of warm solves runs with the registry enabled and with
   [Obs.set_enabled false], in alternating rounds so clock drift and cache
   warmth cancel, and the overhead is computed from the two totals.

   Emits BENCH_obs.json gate rows; the overhead is a ceiling row whose
   bound (2%) lives in the checked-in baseline. *)

module G = Phom_graph.Generators
module IO = Phom_graph.Graph_io
module Obs = Phom_obs.Obs
module Daemon = Phom_server.Daemon
module Protocol = Phom_server.Protocol

let request st line =
  match Protocol.parse line with
  | Error m -> failwith ("bench obs: bad request: " ^ m)
  | Ok req -> fst (Daemon.execute st req)

let expect_ok what reply =
  if String.length reply < 2 || String.sub reply 0 2 <> "ok" then
    failwith (Printf.sprintf "bench obs: %s failed: %s" what reply)

(* one timed batch of [iters] warm solves in the given registry mode *)
let batch st solve ~iters ~enabled =
  Obs.set_enabled enabled;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled true)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      for _ = 1 to iters do
        expect_ok "warm solve" (request st solve)
      done;
      Unix.gettimeofday () -. t0)

(* the tracked workload; the checked-in baseline is measured on it *)
let m = 60
let noise = 0.1
let rounds = 12
let iters = 200

let run ~seed ~out ?check () =
  Util.heading "Observability: metrics overhead on the warm-serve path";
  Util.note "pattern m=%d, %d rounds x %d warm solves per mode" m rounds
    iters;
  let rng = Random.State.make [| seed |] in
  let g1, pool = G.paper_pattern ~rng ~m in
  let g2 = G.paper_data ~rng ~pool ~noise g1 in
  let save g =
    let path = Filename.temp_file "phom_obs_bench" ".phg" in
    IO.save path g;
    path
  in
  let p1 = save g1 and p2 = save g2 in
  let finally () =
    List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ p1; p2 ]
  in
  Fun.protect ~finally @@ fun () ->
  (* unbounded budget: a tripped answer would compare different work *)
  let config = { Daemon.default_config with Daemon.default_timeout = None } in
  let st = Daemon.make_state config in
  expect_ok "load pattern" (request st ("load graph obs.g1 " ^ p1));
  expect_ok "load data" (request st ("load graph obs.g2 " ^ p2));
  let solve = "solve card obs.g1 obs.g2 --sim shingles --xi 0.5" in
  (* cold solve fills the cache; one warm batch per mode warms the code *)
  expect_ok "cold solve" (request st solve);
  ignore (batch st solve ~iters ~enabled:true);
  ignore (batch st solve ~iters ~enabled:false);
  let on_total = ref 0. and off_total = ref 0. in
  for _ = 1 to rounds do
    on_total := !on_total +. batch st solve ~iters ~enabled:true;
    off_total := !off_total +. batch st solve ~iters ~enabled:false
  done;
  let n = float_of_int (rounds * iters) in
  let on_per = !on_total /. n and off_per = !off_total /. n in
  let overhead =
    if !off_total > 0. then (!on_total -. !off_total) /. !off_total *. 100.
    else 0.
  in
  Util.table
    [ "mode"; "total"; "per query" ]
    [
      [ "metrics on"; Util.seconds !on_total; Printf.sprintf "%.6f" on_per ];
      [ "metrics off"; Util.seconds !off_total; Printf.sprintf "%.6f" off_per ];
    ];
  Util.note "overhead: %.2f%%" overhead;
  (* the stats surface stayed live through the run *)
  let stats = request st "stats" in
  expect_ok "stats" stats;
  let row = Gate.row "obs" "warm-serve" in
  Gate.finish ~out ?check
    [
      row "enabled_seconds_per_query" Time on_per;
      row "disabled_seconds_per_query" Time off_per;
      row "overhead_percent" Ceiling overhead;
    ]
