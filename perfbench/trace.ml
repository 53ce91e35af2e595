(* The traced in-process replay: the same request lines, executed by
   calling the public functions the daemon's request handlers call, in the
   same order (Daemon.prepare_solve's pins, warm-start recall, closure,
   similarity, Instance.make, candidates, Api.solve_within, remember; and
   Catalog.load_graph/load_mat/unload/edit for writes), each timed from
   outside. Side measurements time single layers on their own (a cold
   Bounded_closure, Shingle.matrix, Instance.candidates on a fresh
   instance, Graph_io.load, Incremental.update on the benchmark's copy of
   the closure) and are left out of the request's own time.

   [run ~traced:false] executes the same sequence with one clock per
   request and no side measurements; the difference of the two totals is
   the tracing overhead. *)

module D = Phom_graph.Digraph
module Budget = Phom_graph.Budget
module Api = Phom.Api
module Catalog = Phom_server.Catalog
module Protocol = Phom_server.Protocol

type result = {
  samples : (string, float list) Hashtbl.t;  (** per-layer samples, normalised *)
  counts : (string, int) Hashtbl.t;  (** event counters *)
  block_ms : float array;  (** per request: its own time, normalised *)
  timed_ms : float array;  (** per request: the sum of its timed calls *)
  mismatches : int;  (** solves whose answer differs from the pooled replay *)
  lru : Phom_server.Lru.stats;
}

let now = Unix.gettimeofday
let ms_since t0 = (now () -. t0) *. 1000.

let ok_exn = function Ok v -> v | Error e -> failwith e

(* the daemon's warm-start key shape: the request without signatures *)
let solve_key (s : Protocol.solve) =
  Printf.sprintf "%s/%s/%s/%s/%h/%s"
    (Protocol.problem_token s.Protocol.problem)
    s.Protocol.g1 s.Protocol.g2
    (Catalog.sim_to_string s.Protocol.sim)
    s.Protocol.xi
    (match s.Protocol.hops with None -> "full" | Some k -> string_of_int k)

let status_token = function
  | Budget.Complete -> "complete"
  | Budget.Exhausted r -> Printf.sprintf "exhausted(%s)" (Budget.string_of_reason r)

let run ~traced ~pool ~expected lines =
  let cat =
    Catalog.create ~max_graph_bytes:Replay.config.max_graph_bytes
      ~max_mat_bytes:Replay.config.max_mat_bytes
      ~cache_bytes:Replay.config.cache_bytes ()
  in
  let calib = Calib.create () in
  Calib.prime calib;
  let samples = Hashtbl.create 64 and counts = Hashtbl.create 16 in
  let count k = Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)) in
  (* the benchmark's copy of each edited graph's closure, carried along by
     the timed Incremental.update calls *)
  let own_closure = Hashtbl.create 4 in
  let mismatches = ref 0 in
  let n = Array.length lines in
  let block_ms = Array.make n 0. and timed_ms = Array.make n 0. in
  Array.iteri
    (fun i line ->
      let local = ref [] and timed = ref 0. and side = ref 0. in
      let record k v = local := (k, v) :: !local in
      (* a call on the daemon's path *)
      let time k f =
        if not traced then f ()
        else begin
          let t0 = now () in
          let r = f () in
          let dt = ms_since t0 in
          timed := !timed +. dt;
          record k dt;
          r
        end
      in
      (* a layer timed on its own, off the request's clock *)
      let aside k f =
        if traced then begin
          let t0 = now () in
          let r = f () in
          let dt = ms_since t0 in
          side := !side +. dt;
          record k dt;
          ignore (Sys.opaque_identity r)
        end
      in
      let t_block = now () in
      let req = time "protocol.parse" (fun () -> Replay.parse line) in
      (match req with
      | Protocol.Load_graph { name; path } ->
          ignore (time "catalog.load_graph" (fun () -> ok_exn (Catalog.load_graph cat ~name ~path)));
          aside "graph_io.load" (fun () -> Phom_graph.Graph_io.load path)
      | Protocol.Load_mat { name; path } ->
          ignore (time "catalog.load_mat" (fun () -> ok_exn (Catalog.load_mat cat ~name ~path)))
      | Protocol.Unload name ->
          ignore (time "catalog.unload" (fun () -> ok_exn (Catalog.unload cat name)));
          Hashtbl.remove own_closure name
      | Protocol.Edit e ->
          let name = e.Protocol.name in
          (* off the clock: the pre-edit graph and the benchmark's closure *)
          let prior =
            if not traced then None
            else begin
              let t0 = now () in
              let before = ok_exn (Catalog.graph cat name) in
              let m =
                match Hashtbl.find_opt own_closure name with
                | Some m -> m
                | None -> Phom_graph.Bounded_closure.relation before
              in
              side := !side +. ms_since t0;
              Some (before, m)
            end
          in
          ignore
            (time "catalog.edit" (fun () ->
                 ok_exn
                   (Catalog.edit ?expect_crc:e.Protocol.crc cat ~name ~op:e.Protocol.op
                      ~v:e.Protocol.v ~w:e.Protocol.w)));
          Option.iter (fun (before, m) ->
            let after = ok_exn (Catalog.graph cat name) in
            let t0 = now () in
            let m' =
              Phom_graph.Incremental.update ~hops:None ~before ~after ~op:e.Protocol.op
                ~u:e.Protocol.v ~v:e.Protocol.w m
            in
            let dt = ms_since t0 in
            side := !side +. dt;
            record "incremental.update" dt;
            Hashtbl.replace own_closure name m')
            prior
      | Protocol.Solve s ->
          let p1 = time "catalog.pin" (fun () -> ok_exn (Catalog.pin cat s.Protocol.g1)) in
          let p2 = time "catalog.pin" (fun () -> ok_exn (Catalog.pin cat s.Protocol.g2)) in
          let matv =
            match s.Protocol.sim with
            | Catalog.Named m -> Some (time "catalog.pin" (fun () -> ok_exn (Catalog.pin_mat cat m)))
            | Catalog.Equality | Catalog.Shingles -> None
          in
          let wkey = solve_key s in
          let warm_start = time "catalog.pin" (fun () -> Catalog.recall_solution cat ~key:wkey) in
          count "solves";
          if Option.is_some warm_start then count "warm_recalls";
          let budget = Budget.create ?steps:s.Protocol.steps () in
          let g1 = p1.Catalog.pin_graph and g2 = p2.Catalog.pin_graph in
          let tc2, cprov =
            time "catalog.closure" (fun () ->
                Catalog.closure_pinned ~budget cat ~pin:p2 ~hops:s.Protocol.hops)
          in
          if cprov = Catalog.Hit then count "closure_hits";
          if cprov = Catalog.Miss then
            aside "bounded_closure.relation" (fun () ->
                Phom_graph.Bounded_closure.relation ?hops:s.Protocol.hops g2);
          let mat, mprov =
            time "catalog.similarity" (fun () ->
                ok_exn (Catalog.similarity_pinned ?matv cat ~p1 ~p2 ~sim:s.Protocol.sim))
          in
          if mprov <> Catalog.Catalog then count "similarity_lookups";
          if mprov = Catalog.Hit then count "similarity_hits";
          if mprov = Catalog.Miss && s.Protocol.sim = Catalog.Shingles then
            aside "shingle.matrix" (fun () ->
                Phom_sim.Shingle.matrix (D.labels g1) (D.labels g2));
          if traced then record "simmat.cells" (float_of_int (D.n g1 * D.n g2));
          let xi = s.Protocol.xi in
          let t = time "instance.make" (fun () -> Phom.Instance.make ~tc2 ~g1 ~g2 ~mat ~xi ()) in
          if traced then begin
            let fresh = Phom.Instance.make ~tc2 ~g1 ~g2 ~mat ~xi () in
            let t0 = now () in
            let rows = Phom.Instance.candidates fresh in
            let dt = ms_since t0 in
            side := !side +. dt;
            record "instance.candidates" dt;
            record "instance.candidate_pairs"
              (float_of_int (Array.fold_left (fun a r -> a + Array.length r) 0 rows))
          end;
          let t0 = now () in
          let prov =
            Catalog.candidates_pinned ~budget ?matv cat ~instance:t ~p1 ~p2 ~sim:s.Protocol.sim
              ~hops:s.Protocol.hops
          in
          if traced then begin
            let dt = ms_since t0 in
            timed := !timed +. dt;
            record
              (if prov = Catalog.Hit then "catalog.candidates_hit" else "catalog.candidates_miss")
              dt
          end;
          if prov = Catalog.Hit then count "candidates_hits";
          let before = Budget.steps_used budget in
          let pool = if s.Protocol.sequential then None else Some pool in
          let r =
            time "api.solve" (fun () ->
                Api.solve_within ~algorithm:s.Protocol.algorithm
                  ~partition:s.Protocol.partition ~compress:s.Protocol.compress ~budget
                  ?pool ?warm_start s.Protocol.problem t)
          in
          time "catalog.remember" (fun () ->
              Catalog.remember_solution cat ~key:wkey ~g1:s.Protocol.g1 ~g2:s.Protocol.g2
                r.Api.mapping);
          let status =
            match r.Api.status with
            | Budget.Exhausted _ as st -> st
            | Budget.Complete ->
                if Budget.poll budget then Budget.Complete else Budget.status budget
          in
          if traced then begin
            record "api.steps" (float_of_int (Budget.steps_used budget - before));
            if status <> Budget.Complete then count "exhausted";
            if s.Protocol.algorithm = Api.Exact_bb then begin
              count "exact_solves";
              let w = Phom.Dp.width t in
              record "dp.width" (float_of_int w);
              (* Api's default max_width *)
              if w <= 4 then count "dp_routed"
            end
          end;
          let answer =
            Printf.sprintf "quality=%.4f mapped=%d/%d matched=%b status=%s" r.Api.quality
              (Phom.Mapping.size r.Api.mapping) (D.n g1) (Api.matches r) (status_token status)
          in
          let want = expected.(i) in
          let ok =
            List.for_all
              (fun k -> Replay.field answer k = Replay.field want k)
              [ "quality"; "mapped"; "matched"; "status" ]
          in
          if not ok then begin
            incr mismatches;
            if !mismatches = 1 then
              Printf.eprintf "perfbench: traced replay differs on %s: %s vs %s\n%!" line answer want
          end
      | _ -> ());
      let block = ms_since t_block -. !side in
      Calib.run calib;
      let f = Calib.factor calib in
      block_ms.(i) <- block *. f;
      timed_ms.(i) <- !timed *. f;
      List.iter
        (fun (k, v) ->
          let scaled =
            match k with
            | "api.steps" | "simmat.cells" | "instance.candidate_pairs" | "dp.width" -> v
            | _ -> v *. f
          in
          Hashtbl.replace samples k (scaled :: Option.value ~default:[] (Hashtbl.find_opt samples k)))
        !local)
    lines;
  {
    samples;
    counts;
    block_ms;
    timed_ms;
    mismatches = !mismatches;
    lru = Catalog.cache_stats cat;
  }
