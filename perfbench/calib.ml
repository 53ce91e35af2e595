(* Speed normalisation.

   A shared 2-vCPU host with steal time runs the same code 10-20 s phases
   faster or slower (a fixed kernel's 2-second medians drifted from 11.7
   to 19.2 ms over 90 s). Every duration the benchmark reports as an
   end-to-end metric is therefore rescaled to a reference speed:

     normalised = raw * reference_ms / k

   where [k] is the median of the calibration kernel's latest [window]
   runs, taken between requests while the daemon is idle (the load is a
   closed loop, so the kernel never competes with a request), and
   [reference_ms] is the kernel's median on the machine the constants
   below were set on. A normalised millisecond is "a millisecond at
   reference speed"; raw values are printed beside it for humans.
   Set-up time is the exception: it has a kernel of its own (below). *)

(* the kernel's median on the reference machine (2 vCPU, OCaml 5.1.1) *)
let reference_ms = 1.6

let window = 15

(* fixed inputs, built once: the kernel must do identical work every run.
   [stream_data] (2 MiB) is larger than the caches a core keeps to itself,
   so its scan slows down with the shared-cache and memory-bandwidth
   pressure that slows the daemon's closure and edit work; the rest stays
   in a core's own caches and tracks its clock. *)
let scan_data = lazy (Array.init 65_536 (fun i -> (i * 40_503) land 0xFFFF))
let stream_data = lazy (Array.init (1 lsl 18) (fun i -> i land 0xFF))
let sort_data = lazy (Array.init 1_536 (fun i -> (i * 2_654_435_761) land 0xFFFFF))

(* a mix of the work the daemon does: allocation (short strings), hashing
   (a string table), sorting (an int array), array scans and a stream
   through memory *)
let kernel () =
  let scan = Lazy.force scan_data and sorted = Array.copy (Lazy.force sort_data) in
  let keys = Array.init 768 (fun i -> "k" ^ string_of_int (i * 7_919)) in
  let table = Hashtbl.create 1_024 in
  Array.iteri (fun i k -> Hashtbl.replace table k i) keys;
  let hits = ref 0 in
  Array.iter (fun k -> hits := !hits + Hashtbl.find table k) keys;
  Array.sort compare sorted;
  let acc = ref 0 in
  Array.iter (fun x -> acc := !acc + (x lxor 1)) scan;
  Array.iter (fun x -> acc := !acc + x) (Lazy.force stream_data);
  ignore (Sys.opaque_identity (!hits + !acc + sorted.(0)))

let time_kernel () =
  let t0 = Unix.gettimeofday () in
  kernel ();
  (Unix.gettimeofday () -. t0) *. 1000.

(* the rolling window plus every kernel time of the run, for the
   min/median/max the report prints *)
type t = { ring : float array; mutable filled : int; mutable next : int; mutable all : float list }

let create () = { ring = Array.make window 0.; filled = 0; next = 0; all = [] }

let run t =
  let ms = time_kernel () in
  t.ring.(t.next) <- ms;
  t.next <- (t.next + 1) mod window;
  t.filled <- min window (t.filled + 1);
  t.all <- ms :: t.all

(* fill the window before the first measurement *)
let prime t = for _ = 1 to window do run t done

let median_of a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let current t = median_of (Array.sub t.ring 0 t.filled)

(* factor that turns a raw duration into a normalised one *)
let factor t = reference_ms /. current t

let summary_of l =
  let a = Array.of_list l in
  (median_of a, Array.fold_left min infinity a, Array.fold_left max neg_infinity a)

let summary t = summary_of t.all

(* ---- the set-up kernel ----

   Set-up time needs a kernel of its own. A cold start of phomd --jobs 2
   starts a process with two pool domains that sit parked while the main
   domain loads files and computes closures. Every minor collection, and
   each phase of a major one, stops all three domains, and the parked ones
   join only when the host schedules them. How long that takes follows the
   load of the host's other tenants: on the machine below, the set-up of
   serve-churn went from about 70 to 105 ms raw between stretches of a few
   minutes while the kernel above got faster, so normalising set-up by it
   made the drift worse (perfbench/NOTES.md, "Set-up").

   The set-up kernel has the same shape, in the benchmark's own code: a
   fresh process (main.exe --setup-kernel) parks two domains and, on fixed
   inputs, builds a graph's adjacency, its 3-hop reach sets as bitsets
   (7 minor collections and 1 major) and a hash table of them, then
   exits. Each cold start's set-up time is multiplied by
   [reference_setup_ms / k], where [k] is the kernel's time just before
   that start. *)

(* the set-up kernel's median on the reference machine *)
let reference_setup_ms = 38.

let setup_kernel () =
  let m = Mutex.create () and c = Condition.create () and stop = ref false in
  let park () =
    Mutex.lock m;
    while not !stop do Condition.wait c m done;
    Mutex.unlock m
  in
  let parked = [ Domain.spawn park; Domain.spawn park ] in
  let rng = Random.State.make [| 7 |] in
  let n = 3_000 in
  let adj = Array.make n [] in
  for _ = 1 to 9_000 do
    let v = Random.State.int rng n in
    adj.(v) <- Random.State.int rng n :: adj.(v)
  done;
  let reach v =
    let b = Bytes.make ((n + 7) / 8) '\000' in
    let mark w =
      let i = w lsr 3 and bit = 1 lsl (w land 7) in
      let cur = Char.code (Bytes.get b i) in
      cur land bit = 0 && (Bytes.set b i (Char.chr (cur lor bit)); true)
    in
    let frontier = ref [ v ] in
    for _ = 1 to 3 do
      frontier := List.concat_map (fun x -> List.filter mark adj.(x)) !frontier
    done;
    b
  in
  let table = Hashtbl.create 4_096 in
  for v = 0 to n - 1 do
    Hashtbl.replace table (Digest.bytes (reach v)) v
  done;
  let keys = Array.init 20_000 (fun i -> string_of_int (i * 7_919)) in
  Array.sort compare keys;
  ignore (Sys.opaque_identity (Hashtbl.length table, keys));
  Mutex.lock m;
  stop := true;
  Condition.broadcast c;
  Mutex.unlock m;
  List.iter Domain.join parked

(* run the set-up kernel in a fresh process of this executable; its time
   in ms, from spawn to exit *)
let time_setup_kernel () =
  let self = Sys.executable_name in
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process self [| self; "--setup-kernel" |] Unix.stdin Unix.stdout Unix.stderr in
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "the set-up kernel failed"
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  (Unix.gettimeofday () -. t0) *. 1000.
