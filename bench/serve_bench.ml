(* Daemon cold-vs-warm bench: the amortization argument for the matching
   service, measured. For each Fig. 5/6 synthetic pattern/data pair the
   daemon state answers the same solve request twice — the cold query
   computes every artifact (G2 closure, similarity matrix, candidate
   table), the warm ones are served from the LRU cache. Requests go through
   Daemon.execute (the exact per-request pipeline of the socket loop,
   without socket noise), and the warm reply must equal the cold one modulo
   the cache provenance field.

   Emits BENCH_serve.json as gate rows (also printed as a table); this
   suite reports and has no checked-in baseline. *)

module D = Phom_graph.Digraph
module G = Phom_graph.Generators
module IO = Phom_graph.Graph_io
module Daemon = Phom_server.Daemon
module Protocol = Phom_server.Protocol
module Client = Phom_server.Client

type row = {
  name : string;
  n1 : int;
  n2 : int;
  cold_seconds : float;
  warm_seconds : float;  (** mean over the warm repeats *)
  warm_hits : bool;  (** every artifact of the warm replies was a cache hit *)
  equal_output : bool;
}

let request st line =
  match Protocol.parse line with
  | Error m -> failwith ("bench serve: bad request: " ^ m)
  | Ok req -> fst (Daemon.execute st req)

let expect_ok what reply =
  if String.length reply < 2 || String.sub reply 0 2 <> "ok" then
    failwith (Printf.sprintf "bench serve: %s failed: %s" what reply)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* the answer proper: the reply with its cache provenance field removed *)
let strip_cache reply =
  let marker = " cache=" in
  let rec find i =
    if i + String.length marker > String.length reply then None
    else if String.sub reply i (String.length marker) = marker then Some i
    else find (i + 1)
  in
  match find 0 with Some i -> String.sub reply 0 i | None -> reply

let bench_pair ~rng ~m ~noise ~repeats st =
  let g1, pool = G.paper_pattern ~rng ~m in
  let g2 = G.paper_data ~rng ~pool ~noise g1 in
  let save g =
    let path = Filename.temp_file "phom_serve_bench" ".phg" in
    IO.save path g;
    path
  in
  let p1 = save g1 and p2 = save g2 in
  let finally () = List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ p1; p2 ] in
  Fun.protect ~finally (fun () ->
      let name = Printf.sprintf "fig5-m%d" m in
      expect_ok "load pattern" (request st (Printf.sprintf "load graph %s.g1 %s" name p1));
      expect_ok "load data" (request st (Printf.sprintf "load graph %s.g2 %s" name p2));
      let solve =
        Printf.sprintf "solve card %s.g1 %s.g2 --sim shingles --xi 0.5" name name
      in
      let cold, cold_seconds = Util.timed (fun () -> request st solve) in
      expect_ok "cold solve" cold;
      let warm = ref cold and warm_hits = ref true and warm_total = ref 0. in
      for _ = 1 to repeats do
        let reply, dt = Util.timed (fun () -> request st solve) in
        expect_ok "warm solve" reply;
        warm := reply;
        warm_total := !warm_total +. dt;
        if not (contains ~needle:"cache=closure:hit,mat:hit,cands:hit" reply) then
          warm_hits := false
      done;
      {
        name;
        n1 = D.n g1;
        n2 = D.n g2;
        cold_seconds;
        warm_seconds = !warm_total /. float_of_int repeats;
        warm_hits = !warm_hits;
        equal_output = strip_cache cold = strip_cache !warm;
      })

(* Concurrency phase: the same solve through a real socket under client
   load. The daemon runs in its own domain with a worker pool; for each
   client count we reset the artifact cache, fire a cold burst (one solve
   per client, artifacts computed under contention) and then warm rounds
   (cache-served solves), and report p50/p99 latency for both. This is the
   multiplexing claim measured: adding peers must not multiply the warm
   tail. *)

type conc_row = {
  clients : int;
  cold_p50 : float;
  cold_p99 : float;
  warm_p50 : float;
  warm_p99 : float;
}

let percentile p xs =
  (* nearest-rank on a sorted copy; p in [0,1] *)
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(min (n - 1) (max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* shed/teardown races are expected under load; retry patiently *)
let conc_backoff = { Client.retries = 20; delay = 0.05; max_delay = 0.5 }

let oneshot sockaddr line =
  match Client.request ~backoff:conc_backoff sockaddr line with
  | Ok reply -> reply
  | Error m -> failwith ("bench serve: " ^ m)

let with_socket_daemon ~jobs f =
  let sock = Filename.temp_file "phom_serve_bench" ".sock" in
  Sys.remove sock;
  let config =
    {
      Daemon.default_config with
      Daemon.socket_path = Some sock;
      jobs;
      (* unbounded per-request budget, same reasoning as the in-process
         phase: a tripped answer is cheaper than a complete one and would
         skew the latency comparison *)
      default_timeout = None;
    }
  in
  let ready_m = Mutex.create () and ready_c = Condition.create () in
  let ready = ref false in
  let server =
    Domain.spawn (fun () ->
        Daemon.serve
          ~ready:(fun _ ->
            Mutex.lock ready_m;
            ready := true;
            Condition.signal ready_c;
            Mutex.unlock ready_m)
          config)
  in
  Mutex.lock ready_m;
  while not !ready do
    Condition.wait ready_c ready_m
  done;
  Mutex.unlock ready_m;
  let sockaddr = Unix.ADDR_UNIX sock in
  let finally () =
    (try ignore (Client.request ~backoff:conc_backoff sockaddr "shutdown")
     with _ -> ());
    Domain.join server;
    try Sys.remove sock with Sys_error _ -> ()
  in
  Fun.protect ~finally (fun () -> f sockaddr)

(* one burst: [clients] domains, each connecting once and timing [rounds]
   solves; returns every per-request latency *)
let burst ~clients ~rounds sockaddr solve =
  let worker () =
    match Client.connect sockaddr with
    | Error m -> failwith ("bench serve: " ^ m)
    | Ok conn ->
        Fun.protect
          ~finally:(fun () -> Client.close conn)
          (fun () ->
            List.init rounds (fun _ ->
                let reply, dt = Util.timed (fun () -> Client.send conn solve) in
                (match reply with
                | Ok r -> expect_ok "concurrent solve" r
                | Error m -> failwith ("bench serve: " ^ m));
                dt))
  in
  let domains = List.init clients (fun _ -> Domain.spawn worker) in
  List.concat_map Domain.join domains

let bench_concurrency ~rng ~m ~noise ~jobs ~clients_list ~warm_rounds =
  let g1, pool = G.paper_pattern ~rng ~m in
  let g2 = G.paper_data ~rng ~pool ~noise g1 in
  let save g =
    let path = Filename.temp_file "phom_serve_bench" ".phg" in
    IO.save path g;
    path
  in
  let p1 = save g1 and p2 = save g2 in
  let finally () =
    List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ p1; p2 ]
  in
  Fun.protect ~finally (fun () ->
      with_socket_daemon ~jobs (fun sockaddr ->
          expect_ok "load pattern"
            (oneshot sockaddr (Printf.sprintf "load graph conc.g1 %s" p1));
          expect_ok "load data"
            (oneshot sockaddr (Printf.sprintf "load graph conc.g2 %s" p2));
          let solve = "solve card conc.g1 conc.g2 --sim shingles --xi 0.5" in
          List.map
            (fun clients ->
              (* evict every artifact so the cold burst really is cold *)
              expect_ok "reset cache" (oneshot sockaddr "unload conc.g2");
              expect_ok "reload data"
                (oneshot sockaddr (Printf.sprintf "load graph conc.g2 %s" p2));
              let cold = burst ~clients ~rounds:1 sockaddr solve in
              let warm = burst ~clients ~rounds:warm_rounds sockaddr solve in
              {
                clients;
                cold_p50 = percentile 0.50 cold;
                cold_p99 = percentile 0.99 cold;
                warm_p50 = percentile 0.50 warm;
                warm_p99 = percentile 0.99 warm;
              })
            clients_list))

let run ~seed ~sizes ~noise ~repeats ~clients ~out () =
  Util.heading "Matching service: cold vs warm query latency";
  Util.note "paper synthetic pairs (Fig. 5 generator), noise %.2f, %d warm \
             repeats per query"
    noise repeats;
  let rng = Random.State.make [| seed |] in
  (* unbounded per-request budget: the bench must never trade a slow cold
     query for an exhausted answer, or cold vs warm would compare different
     work *)
  let config = { Daemon.default_config with Daemon.default_timeout = None } in
  let st = Daemon.make_state config in
  let rows = List.map (fun m -> bench_pair ~rng ~m ~noise ~repeats st) sizes in
  Util.table
    [ "query"; "|G1|"; "|G2|"; "cold"; "warm"; "speedup"; "warm hits"; "same answer" ]
    (List.map
       (fun r ->
         [
           r.name;
           string_of_int r.n1;
           string_of_int r.n2;
           Util.seconds r.cold_seconds;
           Util.seconds r.warm_seconds;
           Printf.sprintf "%.1fx"
             (if r.warm_seconds > 0. then r.cold_seconds /. r.warm_seconds else 0.);
           string_of_bool r.warm_hits;
           string_of_bool r.equal_output;
         ])
       rows);
  let conc_jobs = 4 and warm_rounds = 10 in
  Util.heading "Matching service: latency under concurrent clients";
  Util.note "one daemon over a Unix socket, %d solve workers, %d warm rounds \
             per client"
    conc_jobs warm_rounds;
  let conc_m = List.fold_left max 1 sizes in
  let conc_rows =
    bench_concurrency ~rng ~m:conc_m ~noise ~jobs:conc_jobs
      ~clients_list:clients ~warm_rounds
  in
  Util.table
    [ "clients"; "cold p50"; "cold p99"; "warm p50"; "warm p99" ]
    (List.map
       (fun r ->
         [
           string_of_int r.clients;
           Util.seconds r.cold_p50;
           Util.seconds r.cold_p99;
           Util.seconds r.warm_p50;
           Util.seconds r.warm_p99;
         ])
       conc_rows);
  (* report only: no baseline, so no gate *)
  Gate.finish ~out
    (List.concat_map
       (fun r ->
         let row = Gate.row "serve" r.name in
         [
           row "n1" Work (float_of_int r.n1);
           row "n2" Work (float_of_int r.n2);
           row "warm_hits" Work (Gate.of_bool r.warm_hits);
           row "equal_output" Work (Gate.of_bool r.equal_output);
           row "cold_seconds" Time r.cold_seconds;
           row "warm_seconds" Time r.warm_seconds;
         ])
       rows
    @ List.concat_map
        (fun r ->
          let row = Gate.row "serve" (Printf.sprintf "clients-%d" r.clients) in
          [
            row "cold_p50_seconds" Time r.cold_p50;
            row "cold_p99_seconds" Time r.cold_p99;
            row "warm_p50_seconds" Time r.warm_p50;
            row "warm_p99_seconds" Time r.warm_p99;
          ])
        conc_rows);
  if List.exists (fun r -> not (r.warm_hits && r.equal_output)) rows then begin
    prerr_endline "warm queries missed the cache or changed the answer";
    exit 1
  end
