(* Incremental-matching bench and CI gate.

   For each tracked seeded pattern/data pair the daemon absorbs a fixed
   script of single-edge edits against the data graph and re-solves after
   every step, two ways:

   - the incremental path: [addedge]/[deledge] verbs mutate the loaded
     graph in place, cached closures are maintained incrementally and
     re-keyed by content signature, and the re-solve reuses every artifact
     the edit provably did not change;
   - the rebuild path: [unload] the data graph, [load] the edited file from
     disk, solve cold — what a daemon without edit verbs would have to do.

   Both paths must produce byte-identical answers at every step (the
   differential assertion from the oracle suite, repeated here so the bench
   cannot silently measure two different computations), and the incremental
   path must be faster on every tracked instance — that is the win the
   dynamic-graph subsystem exists for, so the gate fails when it
   evaporates. *)

module D = Phom_graph.Digraph
module G = Phom_graph.Generators
module IO = Phom_graph.Graph_io
module Daemon = Phom_server.Daemon
module Protocol = Phom_server.Protocol

type row = {
  name : string;
  n1 : int;
  n2 : int;
  edits : int;
  incr_seconds : float;  (** mean over repeats: sum of edit + warm re-solve *)
  rebuild_seconds : float;  (** mean over repeats: sum of unload + reload + cold solve *)
  closures_maintained : int;
      (** closure artifacts carried across edits by incremental maintenance
          (per run, not per repeat) *)
  equal_output : bool;
}

let request st line =
  match Protocol.parse line with
  | Error m -> failwith ("bench incr: bad request: " ^ m)
  | Ok req -> fst (Daemon.execute st req)

let expect_ok what reply =
  if String.length reply < 2 || String.sub reply 0 2 <> "ok" then
    failwith (Printf.sprintf "bench incr: %s failed: %s" what reply);
  reply

let strip_cache reply =
  let marker = " cache=" in
  let rec find i =
    if i + String.length marker > String.length reply then None
    else if String.sub reply i (String.length marker) = marker then Some i
    else find (i + 1)
  in
  match find 0 with Some i -> String.sub reply 0 i | None -> reply

(* "... closures=N" -> N *)
let closures_of reply =
  let marker = " closures=" in
  let n = String.length reply and m = String.length marker in
  let rec find i =
    if i + m > n then 0
    else if String.sub reply i m = marker then
      let stop = ref (i + m) in
      while !stop < n && reply.[!stop] <> ' ' do
        incr stop
      done;
      int_of_string (String.sub reply (i + m) (!stop - i - m))
    else find (i + 1)
  in
  find 0

let save_tmp g =
  let path = Filename.temp_file "phom_incr_bench" ".phg" in
  IO.save path g;
  path

let rm path = try Sys.remove path with Sys_error _ -> ()

(* the edit script: [edits] applicable single-edge edits, deletions of
   existing edges alternating with additions of fresh ones, derived
   deterministically from the seed *)
let edit_script ~rng ~edits g0 =
  let g = ref g0 in
  let acc = ref [] in
  for i = 1 to edits do
    let n = D.n !g in
    let step =
      if i mod 2 = 1 then begin
        (* delete a pseudo-random existing edge *)
        let es = ref [] in
        D.iter_edges (fun u v -> es := (u, v) :: !es) !g;
        let es = Array.of_list !es in
        let u, v = es.(Random.State.int rng (Array.length es)) in
        (`Del, u, v)
      end
      else begin
        let rec pick () =
          let u = Random.State.int rng n and v = Random.State.int rng n in
          if D.has_edge !g u v then pick () else (u, v)
        in
        let u, v = pick () in
        (`Add, u, v)
      end
    in
    let op, u, v = step in
    g := (match op with `Add -> D.add_edge !g u v | `Del -> D.remove_edge !g u v);
    acc := (op, u, v, !g) :: !acc
  done;
  List.rev !acc

let fresh_state () =
  (* unbounded per-request budget: a tripped answer is cheaper than a
     complete one and would corrupt the comparison *)
  Daemon.make_state { Daemon.default_config with Daemon.default_timeout = None }

let solve_line = "solve card g1 g2 --sim shingles --xi 0.5"

(* one timed pass over the script on the incremental path: edit in place,
   re-solve warm. Returns (seconds, per-step stripped replies, closures
   maintained). *)
let run_incremental ~p1 ~p2 script =
  let st = fresh_state () in
  Fun.protect ~finally:(fun () -> Daemon.close_state st) @@ fun () ->
  ignore (expect_ok "load g1" (request st ("load graph g1 " ^ p1)));
  ignore (expect_ok "load g2" (request st ("load graph g2 " ^ p2)));
  ignore (expect_ok "priming solve" (request st solve_line));
  let replies = ref [] and closures = ref 0 in
  let (), seconds =
    Util.timed (fun () ->
        List.iter
          (fun (op, u, v, _) ->
            let verb = match op with `Add -> "addedge" | `Del -> "deledge" in
            let er =
              expect_ok verb
                (request st (Printf.sprintf "%s g2 %d %d" verb u v))
            in
            closures := !closures + closures_of er;
            replies :=
              strip_cache (expect_ok "warm re-solve" (request st solve_line))
              :: !replies)
          script)
  in
  (seconds, List.rev !replies, !closures)

(* the same script on the rebuild path: every step unloads the data graph,
   reloads the pre-saved edited file, and solves cold *)
let run_rebuild ~p1 ~p2 ~step_files script =
  let st = fresh_state () in
  Fun.protect ~finally:(fun () -> Daemon.close_state st) @@ fun () ->
  ignore (expect_ok "load g1" (request st ("load graph g1 " ^ p1)));
  ignore (expect_ok "load g2" (request st ("load graph g2 " ^ p2)));
  ignore (expect_ok "priming solve" (request st solve_line));
  let replies = ref [] in
  let (), seconds =
    Util.timed (fun () ->
        List.iteri
          (fun i _ ->
            ignore (expect_ok "unload g2" (request st "unload g2"));
            ignore
              (expect_ok "reload g2"
                 (request st ("load graph g2 " ^ List.nth step_files i)));
            replies :=
              strip_cache (expect_ok "cold re-solve" (request st solve_line))
              :: !replies)
          script)
  in
  (seconds, List.rev !replies)

let bench_pair ~rng ~m ~noise ~edits ~repeats =
  let g1, pool = G.paper_pattern ~rng ~m in
  let g2 = G.paper_data ~rng ~pool ~noise g1 in
  let script = edit_script ~rng ~edits g2 in
  let p1 = save_tmp g1 and p2 = save_tmp g2 in
  let step_files = List.map (fun (_, _, _, g) -> save_tmp g) script in
  let finally () = List.iter rm (p1 :: p2 :: step_files) in
  Fun.protect ~finally (fun () ->
      let name = Printf.sprintf "incr-m%d" m in
      Printf.eprintf "bench incr: %-10s |G1|=%d |G2|=%d %d edits...\n%!" name
        (D.n g1) (D.n g2) edits;
      let incr_runs = ref [] and rebuild_runs = ref [] in
      let closures = ref 0 and equal = ref true in
      for _ = 1 to repeats do
        let si, ri, ci = run_incremental ~p1 ~p2 script in
        let sr, rr = run_rebuild ~p1 ~p2 ~step_files script in
        incr_runs := si :: !incr_runs;
        rebuild_runs := sr :: !rebuild_runs;
        closures := ci;
        if ri <> rr then equal := false
      done;
      {
        name;
        n1 = D.n g1;
        n2 = D.n g2;
        edits;
        incr_seconds = Util.mean !incr_runs;
        rebuild_seconds = Util.mean !rebuild_runs;
        closures_maintained = !closures;
        equal_output = !equal;
      })

(* the tracked workload; the checked-in baseline's instances are defined by
   it (and the seed) *)
let sizes = [ 20; 40; 80 ]
let noise = 0.1
let edits = 6
let repeats = 3

let run ~seed ~out ?check () =
  Util.heading "Dynamic graphs: edit + warm re-solve vs unload + reload + cold solve";
  Util.note "paper synthetic pairs, noise %.2f, %d edits per instance, %d repeats"
    noise edits repeats;
  let rng = Random.State.make [| seed |] in
  let rows = List.map (fun m -> bench_pair ~rng ~m ~noise ~edits ~repeats) sizes in
  let speedup r = Gate.ratio r.rebuild_seconds r.incr_seconds in
  Util.table
    [ "instance"; "|G1|"; "|G2|"; "edits"; "incremental"; "rebuild"; "speedup";
      "closures kept"; "same answer" ]
    (List.map
       (fun r ->
         [
           r.name;
           string_of_int r.n1;
           string_of_int r.n2;
           string_of_int r.edits;
           Util.seconds r.incr_seconds;
           Util.seconds r.rebuild_seconds;
           Printf.sprintf "%.1fx" (speedup r);
           string_of_int r.closures_maintained;
           string_of_bool r.equal_output;
         ])
       rows);
  (* the win guard is a floor row per instance: edit + warm re-solve must
     beat the rebuild path by the baseline's bound (1: strictly faster) *)
  Gate.finish ~out ?check
    (List.concat_map
       (fun r ->
         let row = Gate.row "incr" r.name in
         [
           row "n1" Work (float_of_int r.n1);
           row "n2" Work (float_of_int r.n2);
           row "edits" Work (float_of_int r.edits);
           row "closures_maintained" Work (float_of_int r.closures_maintained);
           row "equal_output" Work (Gate.of_bool r.equal_output);
           row "incr_seconds" Time r.incr_seconds;
           row "rebuild_seconds" Time r.rebuild_seconds;
           row "speedup" Floor (speedup r);
         ])
       rows);
  (* differential assertion: both paths answered identically at every step *)
  if List.exists (fun r -> not r.equal_output) rows then begin
    prerr_endline
      "bench incr: the incremental and rebuild paths disagree on an answer";
    exit 1
  end
