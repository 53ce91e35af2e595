(* perfbench: the end-to-end benchmark of phomd.

   One run = one workload (see work.ml). The run starts phomd --jobs 2 as
   a subprocess several times to time its set-up, keeps the last one, and
   drives it with one closed-loop client over a Unix socket through a
   fixed number of rounds (--seconds at reference speed), running the
   calibration kernel between requests and the set-up kernel before each
   cold start (calib.ml). It then checks every reply (replay.ml) and
   prints the end-to-end metrics (--trace 0) or the per-layer metrics of
   an in-process traced replay (--trace 1, trace.ml), as one JSON line
   last on stdout. Exit code 1 means a reply failed its
   check; the first failure is printed on stderr.

     main.exe --workload serve-warm --seed 1 --seconds 10 --trace 0 --phomd PATH
     main.exe --describe --workload exact --seed 2 *)

module Pool = Phom_parallel.Pool

let now = Unix.gettimeofday

(* cold starts per run for setup_s; a single one spreads 10-26% *)
let cold_starts = 11

type entry = {
  step : Work.step;
  reply : string;
  raw_ms : float;
  norm_ms : float;
  measured : bool;  (** false for the set-up pass *)
}

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let mkdir_p path =
  List.fold_left
    (fun acc part ->
      let p = if acc = "" then part else Filename.concat acc part in
      (try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      p)
    ""
    (String.split_on_char '/' path)
  |> ignore

let quality_units reply =
  match Replay.field reply "quality" with
  | Some q -> int_of_float (Float.round (float_of_string q *. 10_000.))
  | None -> 0

(* ---- --describe: the request mix and input sizes of a seed ---- *)

let describe w ~seconds =
  let rounds = Work.rounds w ~seconds in
  let mix = Hashtbl.create 16 in
  let bump k = Hashtbl.replace mix k (1 + Option.value ~default:0 (Hashtbl.find_opt mix k)) in
  for i = 0 to rounds - 1 do
    List.iter
      (fun (s : Work.step) ->
        match Replay.parse s.Work.line with
        | Phom_server.Protocol.Solve s ->
            bump
              (Printf.sprintf "solve %s %s %s" (Phom_server.Protocol.problem_token s.problem)
                 (if s.g1.[0] = 'f' then "f*" else s.g1) s.g2)
        | Phom_server.Protocol.Edit e ->
            bump (Printf.sprintf "%s %s" (if e.op = `Add then "addedge" else "deledge") e.name)
        | Phom_server.Protocol.Load_graph { name; _ } ->
            bump ("load graph " ^ if name.[0] = 'f' then "f*" else name)
        | Phom_server.Protocol.Load_mat { name; _ } -> bump ("load mat " ^ name)
        | Phom_server.Protocol.Unload name -> bump ("unload " ^ if name.[0] = 'f' then "f*" else name)
        | _ -> bump "other")
      (w.Work.round i)
  done;
  Printf.printf "workload %s: %d rounds\n" w.Work.name rounds;
  List.iter
    (fun (k, n) -> Printf.printf "  %4d  %s\n" n k)
    (List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) mix []));
  let sizes = Hashtbl.create 16 in
  Hashtbl.iter
    (fun path c ->
      let base = Filename.remove_extension (Filename.basename path) in
      let key = if base.[0] = 'f' then "f*" else base in
      let size =
        match c with
        | Work.Graph g -> Printf.sprintf "%d nodes %d edges" (Phom_graph.Digraph.n g) (Phom_graph.Digraph.nb_edges g)
        | Work.Mat m -> Printf.sprintf "%dx%d" (Phom_sim.Simmat.n1 m) (Phom_sim.Simmat.n2 m)
      in
      Hashtbl.replace sizes (if key = "f*" then key ^ " " ^ size else key) size)
    w.Work.files;
  List.iter
    (fun (k, v) -> Printf.printf "  input %s: %s\n" (List.hd (String.split_on_char ' ' k)) v)
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) sizes []))

(* ---- the socket run ---- *)

type socket_run = {
  setups : (float * float) list;  (** normalised s, raw s *)
  setup_kernel_ms : float list;  (** the set-up kernel before each cold start *)
  setup_replies : string list list;  (** every cold start's set-up replies *)
  entries : entry array;  (** the kept daemon's whole stream *)
  rss_mb : float;
  cpu_ms : float;  (** daemon CPU over the measured phase *)
  calib : Calib.t;
}

let socket_run ~phomd ~sock ~seconds ~lives (w : Work.t) =
  let calib = Calib.create () in
  Calib.prime calib;
  let setups = ref [] and setup_replies = ref [] and kernels = ref [] in
  let start_one () =
    for _ = 1 to 5 do Calib.run calib done;
    let f = Calib.factor calib in
    let k = Calib.time_setup_kernel () in
    kernels := k :: !kernels;
    let t0 = now () in
    let d = Live.spawn ~phomd ~sock in
    let timed =
      List.map
        (fun (s : Work.step) ->
          let t = now () in
          let reply = Live.send d s.Work.line in
          (s, reply, (now () -. t) *. 1000.))
        w.Work.setup
    in
    let raw = now () -. t0 in
    setups := (raw *. Calib.reference_setup_ms /. k, raw) :: !setups;
    setup_replies := List.map (fun (_, r, _) -> r) timed :: !setup_replies;
    (d, List.map (fun (step, reply, ms) ->
         { step; reply; raw_ms = ms; norm_ms = ms *. f; measured = false })
         timed)
  in
  for _ = 2 to lives do
    Live.stop (fst (start_one ()))
  done;
  let d, head = start_one () in
  Calib.prime calib;
  let log = ref [] in
  let cpu0 = Live.cpu_ms d in
  let t_start = now () in
  for i = 0 to Work.rounds w ~seconds - 1 do
    List.iter
      (fun step ->
        if now () -. t_start > 150. then failwith "the measured phase overran 150 s";
        let t0 = now () in
        let reply = Live.send d step.Work.line in
        let raw = (now () -. t0) *. 1000. in
        Calib.run calib;
        log :=
          { step; reply; raw_ms = raw; norm_ms = raw *. Calib.factor calib; measured = true }
          :: !log)
      (w.Work.round i)
  done;
  let rss_mb = Live.rss_peak_mb d in
  let cpu_ms = Live.cpu_ms d -. cpu0 in
  Live.stop d;
  {
    setups = List.rev !setups;
    setup_kernel_ms = List.rev !kernels;
    setup_replies = List.rev !setup_replies;
    entries = Array.of_list (head @ List.rev !log);
    rss_mb;
    cpu_ms;
    calib;
  }

(* ---- checks ---- *)

type verdict = { failed : bool array; first : string option }

let check ~pool (w : Work.t) run =
  let entries = run.entries in
  let n = Array.length entries in
  let failed = Array.make n false and first = ref None in
  let fail i why =
    failed.(i) <- true;
    if !first = None then
      first := Some (Printf.sprintf "%s -> %s: %s" entries.(i).step.Work.line entries.(i).reply why)
  in
  let lines = Array.map (fun e -> e.step.Work.line) entries in
  let replayed = Replay.execute ~pool lines in
  let own = Replay.own w.Work.files in
  Array.iteri
    (fun i e ->
      if not (Replay.is_ok e.reply) then fail i "error reply"
      else if Replay.strip_cache e.reply <> Replay.strip_cache (fst replayed.(i)) then
        fail i ("the in-process replay answered " ^ fst replayed.(i))
      else
        match Replay.check own e.step.Work.line e.reply with
        | Ok () -> ()
        | Error why -> fail i why)
    entries;
  (* every cold start must answer its set-up pass like the kept daemon *)
  let kept = List.map (fun e -> Replay.strip_cache e.reply) (List.filter (fun e -> not e.measured) (Array.to_list entries)) in
  let extra_failed =
    List.fold_left
      (fun acc replies ->
        List.fold_left2
          (fun acc r k -> if Replay.strip_cache r <> k then acc + 1 else acc)
          acc replies kept)
      0 run.setup_replies
  in
  if extra_failed > 0 && !first = None then first := Some "a cold start answered its set-up pass differently";
  ({ failed; first = !first }, replayed, extra_failed)

(* ---- metrics ---- *)

let m name value unit_ = { Stats.name; value; unit_ }

(* The write tail is printed but is not an end-to-end metric: on
   serve-churn it is set by how long phomd's parked pool domains take to
   join the stop-the-world collections an edit triggers, which follows the
   host's load, not the program (perfbench/NOTES.md, "The write tail").
   The traced run reports it as socket.write_tail_ms. Returns the
   end-to-end metrics and the write tail. *)
let end_to_end run ~attempted ~failures =
  let measured = List.filter (fun e -> e.measured) (Array.to_list run.entries) in
  let solves = List.filter (fun e -> e.step.Work.kind = Work.Solve) measured in
  let writes = List.filter (fun e -> Work.is_write e.step.Work.kind) measured in
  let q_solve = Stats.tail_q (List.length solves) and q_write = Stats.tail_q (List.length writes) in
  let norm l = List.map (fun e -> e.norm_ms) l and raw l = List.map (fun e -> e.raw_ms) l in
  let rps f = float_of_int (List.length measured) /. (List.fold_left (fun a e -> a +. f e) 0. measured /. 1000.) in
  let quality =
    float_of_int (List.fold_left (fun a e -> a + quality_units e.reply) 0 solves)
    /. float_of_int (10_000 * List.length solves)
  in
  let complete =
    Stats.ratio
      (List.length (List.filter (fun e -> Replay.field e.reply "status" = Some "complete") solves))
      (List.length solves)
  in
  let setup_norm = Stats.p50 (List.map fst run.setups) and setup_raw = Stats.p50 (List.map snd run.setups) in
  let metrics =
    [
      (m "setup_s" setup_norm "s", setup_raw);
      (m "solve_p50_ms" (Stats.p50 (norm solves)) "ms", Stats.p50 (raw solves));
      (m "solve_tail_ms" (Stats.quantile q_solve (norm solves)) "ms", Stats.quantile q_solve (raw solves));
      (m "write_p50_ms" (Stats.p50 (norm writes)) "ms", Stats.p50 (raw writes));
      (m "throughput_rps" (rps (fun e -> e.norm_ms)) "1/s", rps (fun e -> e.raw_ms));
      (m "quality_mean" quality "ratio", quality);
      (m "complete_ratio" complete "ratio", complete);
      (m "ok_ratio" (Stats.ratio (attempted - failures) attempted) "ratio", nan);
      (m "rss_peak_mb" run.rss_mb "MiB", nan);
    ]
  in
  let write_tail =
    (m "write_tail_ms" (Stats.quantile q_write (norm writes)) "ms", Stats.quantile q_write (raw writes))
  in
  let kmed, kmin, kmax = Calib.summary run.calib in
  Printf.printf "kernel ms: median %.4f  min %.4f  max %.4f  (reference %.4f)\n" kmed kmin kmax
    Calib.reference_ms;
  let smed, smin, smax = Calib.summary_of run.setup_kernel_ms in
  Printf.printf "set-up kernel ms: median %.4f  min %.4f  max %.4f  (reference %.4f)\n" smed smin smax
    Calib.reference_setup_ms;
  Printf.printf "samples: %d solves, %d writes, %d cold starts\n" (List.length solves)
    (List.length writes) (List.length run.setups);
  Printf.printf "tails: solve_tail_ms = p%.1f, write_tail_ms = p%.1f\n" (100. *. q_solve) (100. *. q_write);
  Printf.printf "%-16s %14s %14s  %s\n" "metric" "normalised" "raw" "unit";
  List.iter
    (fun (mt, r) ->
      Printf.printf "%-16s %14.4f %14s  %s\n" mt.Stats.name mt.Stats.value
        (if Float.is_nan r then "-" else Printf.sprintf "%.4f" r)
        mt.Stats.unit_)
    (metrics @ [ write_tail ]);
  (List.map fst metrics, fst write_tail)

let per_layer ~pool ~write_tail run replayed_pooled =
  let entries = run.entries in
  let lines = Array.map (fun e -> e.step.Work.line) entries in
  let expected = Array.map fst replayed_pooled in
  let calib = Calib.create () in
  Calib.prime calib;
  (* the pooled and unpooled in-process replays, normalised *)
  let pooled = Replay.execute ~pool ~calib lines in
  let unpooled = Replay.execute ~calib lines in
  let traced = Trace.run ~traced:true ~pool ~expected lines in
  let untraced = Trace.run ~traced:false ~pool ~expected lines in
  let idx p = List.filter p (List.init (Array.length entries) Fun.id) in
  let solves = idx (fun i -> entries.(i).step.Work.kind = Work.Solve) in
  let measured = idx (fun i -> entries.(i).measured) in
  let samples k = Option.value ~default:[] (Hashtbl.find_opt traced.Trace.samples k) in
  let count k = Option.value ~default:0 (Hashtbl.find_opt traced.Trace.counts k) in
  let p50 k = Stats.p50 (samples k) and mean k = Stats.mean (samples k) in
  let api = samples "api.solve" in
  let q_api = Stats.tail_q (List.length api) in
  let sum a = Array.fold_left ( +. ) 0. a in
  let lru = traced.Trace.lru in
  [
    m "api.solve_ms.p50" (Stats.p50 api) "ms";
    m "api.solve_ms.tail" (Stats.quantile q_api api) "ms";
    m "api.steps.mean" (mean "api.steps") "count";
    m "api.exhausted_ratio" (Stats.ratio (count "exhausted") (count "solves")) "ratio";
    m "api.dp_routed_ratio" (Stats.ratio (count "dp_routed") (count "exact_solves")) "ratio";
    m "dp.width.mean" (mean "dp.width") "count";
    m "instance.make_ms.p50" (p50 "instance.make") "ms";
    m "instance.candidates_ms.p50" (p50 "instance.candidates") "ms";
    m "instance.candidate_pairs.mean" (mean "instance.candidate_pairs") "count";
    m "catalog.pin_ms.p50" (p50 "catalog.pin") "ms";
    m "catalog.candidates_hit_ms.p50" (p50 "catalog.candidates_hit") "ms";
    m "catalog.candidates_miss_ms.p50" (p50 "catalog.candidates_miss") "ms";
    m "catalog.candidates_hit_ratio" (Stats.ratio (count "candidates_hits") (count "solves")) "ratio";
    m "catalog.closure_ms.p50" (p50 "catalog.closure") "ms";
    m "catalog.closure_hit_ratio" (Stats.ratio (count "closure_hits") (count "solves")) "ratio";
    m "catalog.similarity_ms.p50" (p50 "catalog.similarity") "ms";
    m "catalog.similarity_hit_ratio"
      (Stats.ratio (count "similarity_hits") (count "similarity_lookups"))
      "ratio";
    m "shingle.matrix_ms.p50" (p50 "shingle.matrix") "ms";
    m "simmat.cells.mean" (mean "simmat.cells") "count";
    m "catalog.edit_ms.p50" (p50 "catalog.edit") "ms";
    m "incremental.update_ms.p50" (p50 "incremental.update") "ms";
    m "catalog.load_graph_ms.p50" (p50 "catalog.load_graph") "ms";
    m "catalog.load_mat_ms.p50" (p50 "catalog.load_mat") "ms";
    m "graph_io.load_ms.p50" (p50 "graph_io.load") "ms";
    m "catalog.unload_ms.p50" (p50 "catalog.unload") "ms";
    m "catalog.remember_ms.p50" (p50 "catalog.remember") "ms";
    m "bounded_closure.relation_ms.p50" (p50 "bounded_closure.relation") "ms";
    m "catalog.warm_recall_ratio" (Stats.ratio (count "warm_recalls") (count "solves")) "ratio";
    m "lru.hits" (float_of_int lru.Phom_server.Lru.hits) "count";
    m "lru.misses" (float_of_int lru.Phom_server.Lru.misses) "count";
    m "lru.evictions" (float_of_int lru.Phom_server.Lru.evictions) "count";
    m "lru.bytes" (float_of_int lru.Phom_server.Lru.bytes) "bytes";
    m "pool.hop_ms.p50" (Stats.p50 (List.map (fun i -> snd pooled.(i) -. snd unpooled.(i)) solves)) "ms";
    m "pool.unpooled_complete_ratio"
      (Stats.ratio
         (List.length (List.filter (fun i -> Replay.field (fst unpooled.(i)) "status" = Some "complete") solves))
         (List.length solves))
      "ratio";
    m "daemon.rtt_overhead_ms.p50"
      (Stats.p50 (List.map (fun i -> entries.(i).norm_ms -. snd pooled.(i)) measured))
      "ms";
    m "protocol.parse_us.p50" (1000. *. p50 "protocol.parse") "us";
    m "daemon.execute_ms.p50" (Stats.p50 (List.map (fun i -> snd pooled.(i)) measured)) "ms";
    m "daemon.cpu_ms_per_req" (run.cpu_ms /. float_of_int (List.length measured)) "ms";
    m "trace.unaccounted_ms.p50"
      (Stats.p50 (List.map (fun i -> snd pooled.(i) -. traced.Trace.timed_ms.(i)) measured))
      "ms";
    m "trace.overhead_pct"
      (100. *. (sum traced.Trace.block_ms -. sum untraced.Trace.block_ms) /. sum untraced.Trace.block_ms)
      "%";
    m "trace.replay_mismatches" (float_of_int (traced.Trace.mismatches + untraced.Trace.mismatches)) "count";
    m "socket.write_tail_ms" write_tail.Stats.value "ms";
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let phomd = ref "_build/default/bin/phomd.exe" and describe_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME serve-warm, serve-churn or exact");
      ("--seed", Arg.Set_int seed, "N the stream seed");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--phomd", Arg.Set_string phomd, "PATH the daemon binary");
      ("--describe", Arg.Set describe_only, " print the request mix and input sizes of the seed");
      ( "--setup-kernel",
        Arg.Unit
          (fun () ->
            Calib.setup_kernel ();
            exit 0),
        " run the set-up kernel and exit (each cold start runs one first)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--phomd PATH]";
  let dir = Printf.sprintf ".perfbench-work/%s-%d-%d" !workload !seed (Unix.getpid ()) in
  mkdir_p dir;
  at_exit (fun () ->
      remove_tree dir;
      try Sys.rmdir (Filename.dirname dir) with Sys_error _ -> ());
  let w = Work.make !workload ~seed:!seed ~dir in
  if !describe_only then describe w ~seconds:!seconds
  else begin
    let traced = !trace = 1 in
    Printf.printf "perfbench %s seed=%d seconds=%d trace=%d\n%!" w.Work.name !seed !seconds !trace;
    let run =
      socket_run ~phomd:!phomd ~sock:(Filename.concat dir "d.sock") ~seconds:!seconds
        ~lives:(if traced then 1 else cold_starts) w
    in
    let pool = Pool.create ~domains:2 () in
    let verdict, replayed, extra_failed = check ~pool w run in
    let failures = Array.fold_left (fun a f -> if f then a + 1 else a) 0 verdict.failed + extra_failed in
    let attempted = Array.length run.entries + (List.length w.Work.setup * (List.length run.setups - 1)) in
    let e2e, write_tail = end_to_end run ~attempted ~failures in
    let metrics = if traced then per_layer ~pool ~write_tail run replayed else e2e in
    Pool.shutdown pool;
    Option.iter (fun why -> Printf.eprintf "perfbench: first failure: %s\n%!" why) verdict.first;
    if traced then
      List.iter (fun mt -> Printf.printf "%-34s %14.4f  %s\n" mt.Stats.name mt.Stats.value mt.Stats.unit_) metrics;
    print_endline (Stats.result_line ~correct:(failures = 0) ~attempted ~failed:failures metrics);
    if failures > 0 then exit 1
  end
