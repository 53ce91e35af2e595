(* The correctness check, in two independent halves.

   1. Every reply of the socket run is compared, with its cache= field
      stripped, against an in-process Daemon.execute replay of the same
      request lines on a fresh pooled state.
   2. Every load and edit reply is compared against the benchmark's own
      copy of the graphs, and every status=complete solve against a cold
      Api.solve_within on that copy, with the edits applied so far: its
      own closure (Bounded_closure from scratch, never the daemon's
      incrementally maintained one), its own similarity matrix, no cache,
      no warm start, no pool. *)

module D = Phom_graph.Digraph
module BM = Phom_graph.Bitmatrix
module Budget = Phom_graph.Budget
module Simmat = Phom_sim.Simmat
module Api = Phom.Api
module Daemon = Phom_server.Daemon
module Protocol = Phom_server.Protocol
module Catalog = Phom_server.Catalog

(* what phomd --jobs 2 --default-timeout 0 runs with *)
let config = { Daemon.default_config with jobs = 2; default_timeout = None }

let parse line =
  match Protocol.parse line with
  | Ok r -> r
  | Error e -> failwith (Printf.sprintf "bad request %S: %s" line e)

let strip_cache reply =
  let marker = " cache=" in
  let m = String.length marker in
  let rec find i =
    if i + m > String.length reply then reply
    else if String.sub reply i m = marker then String.sub reply 0 i
    else find (i + 1)
  in
  find 0

(* the value of [key=] in a reply, up to the next space *)
let field reply key =
  let k = key ^ "=" in
  let kl = String.length k and n = String.length reply in
  let rec find i =
    if i + kl > n then None
    else if String.sub reply i kl = k && (i = 0 || reply.[i - 1] = ' ') then
      let j = try String.index_from reply (i + kl) ' ' with Not_found -> n in
      Some (String.sub reply (i + kl) (j - i - kl))
    else find (i + 1)
  in
  find 0

let is_ok reply = String.length reply >= 2 && String.sub reply 0 2 = "ok"

let now = Unix.gettimeofday

(* replay [lines] through Daemon.execute on a fresh state; with [calib],
   the kernel runs after every request and times come back normalised *)
let execute ?pool ?calib lines =
  let st = Daemon.make_state ?pool config in
  Array.map
    (fun line ->
      let req = parse line in
      let t0 = now () in
      let reply, _ = Daemon.execute st req in
      let ms = (now () -. t0) *. 1000. in
      match calib with
      | None -> (reply, ms)
      | Some c ->
          Calib.run c;
          (reply, ms *. Calib.factor c))
    lines

(* ---- the benchmark's own copy ---- *)

type graph = { g : D.t; load_id : int; state_id : int }

type own = {
  files : (string, Work.content) Hashtbl.t;
  graphs : (string, graph) Hashtbl.t;
  mats : (string, Simmat.t) Hashtbl.t;
  closures : (int * int option, BM.t) Hashtbl.t;  (** state id, hops *)
  sims : (int * int, Simmat.t) Hashtbl.t;  (** load ids: labels never change *)
  answers : (string * int * int, (string, string) result) Hashtbl.t;
  mutable ids : int;
}

let own files =
  {
    files;
    graphs = Hashtbl.create 16;
    mats = Hashtbl.create 16;
    closures = Hashtbl.create 64;
    sims = Hashtbl.create 16;
    answers = Hashtbl.create 256;
    ids = 0;
  }

let fresh_id o =
  o.ids <- o.ids + 1;
  o.ids

let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = f () in
      Hashtbl.replace tbl key v;
      v

(* exact solves may prove optimality in a different number of steps
   sequentially than on the pool; the cold check gets room to finish *)
let cold_step_factor = 50

let cold_quality o (s : Protocol.solve) =
  let g1 = Hashtbl.find o.graphs s.Protocol.g1 and g2 = Hashtbl.find o.graphs s.Protocol.g2 in
  let tc2 =
    memo o.closures (g2.state_id, s.Protocol.hops) (fun () ->
        Phom_graph.Bounded_closure.relation ?hops:s.Protocol.hops g2.g)
  in
  let mat =
    match s.Protocol.sim with
    | Catalog.Named n -> Hashtbl.find o.mats n
    | Catalog.Shingles ->
        memo o.sims (g1.load_id, g2.load_id) (fun () ->
            Phom_sim.Shingle.matrix (D.labels g1.g) (D.labels g2.g))
    | Catalog.Equality -> Simmat.of_label_equality g1.g g2.g
  in
  let t = Phom.Instance.make ~tc2 ~g1:g1.g ~g2:g2.g ~mat ~xi:s.Protocol.xi () in
  let steps = cold_step_factor * Option.value s.Protocol.steps ~default:1_000_000 in
  let r =
    Api.solve_within ~algorithm:s.Protocol.algorithm ~partition:s.Protocol.partition
      ~compress:s.Protocol.compress ~budget:(Budget.create ~steps ()) s.Protocol.problem t
  in
  match r.Api.status with
  | Budget.Complete -> Ok (Printf.sprintf "%.4f" r.Api.quality)
  | Budget.Exhausted _ ->
      Error (Printf.sprintf "the cold solve did not complete within %d steps" steps)

(* check one socket reply against the own copy, then apply the request to
   it; [Error why] on a mismatch *)
let check o line reply =
  let expect want = if reply = want then Ok () else Error ("expected " ^ want) in
  match parse line with
  | Protocol.Load_graph { name; path } -> (
      match Hashtbl.find_opt o.files path with
      | Some (Work.Graph g) ->
          (match Hashtbl.find_opt o.graphs name with
          | Some old when D.equal old.g g -> ()
          | _ ->
              let id = fresh_id o in
              Hashtbl.replace o.graphs name { g; load_id = id; state_id = id });
          expect (Printf.sprintf "ok loaded graph %s nodes=%d edges=%d" name (D.n g) (D.nb_edges g))
      | _ -> Error ("no own copy of " ^ path))
  | Protocol.Load_mat { name; path } -> (
      match Hashtbl.find_opt o.files path with
      | Some (Work.Mat m) ->
          Hashtbl.replace o.mats name m;
          expect (Printf.sprintf "ok loaded mat %s dims=%dx%d" name (Simmat.n1 m) (Simmat.n2 m))
      | _ -> Error ("no own copy of " ^ path))
  | Protocol.Unload name ->
      Hashtbl.remove o.graphs name;
      Hashtbl.remove o.mats name;
      if String.starts_with ~prefix:("ok unloaded " ^ name ^ " ") reply then Ok ()
      else Error "expected ok unloaded"
  | Protocol.Edit e ->
      let old = Hashtbl.find o.graphs e.Protocol.name in
      let g =
        match e.Protocol.op with
        | `Add -> D.add_edge old.g e.Protocol.v e.Protocol.w
        | `Del -> D.remove_edge old.g e.Protocol.v e.Protocol.w
      in
      Hashtbl.replace o.graphs e.Protocol.name { old with g; state_id = fresh_id o };
      if field reply "edges" = Some (string_of_int (D.nb_edges g)) && field reply "applied" = Some "1"
      then Ok ()
      else Error (Printf.sprintf "expected edges=%d applied=1" (D.nb_edges g))
  | Protocol.Solve s -> (
      if not (is_ok reply) then Error "error reply"
      else
        match field reply "status" with
        | Some "complete" -> (
            let key =
              ( line,
                (Hashtbl.find o.graphs s.Protocol.g1).state_id,
                (Hashtbl.find o.graphs s.Protocol.g2).state_id )
            in
            match memo o.answers key (fun () -> cold_quality o s) with
            | Error _ as e -> e
            | Ok q ->
                if field reply "quality" = Some q then Ok ()
                else Error ("the cold solve has quality=" ^ q))
        | _ -> Ok ())
  | _ -> Ok ()
