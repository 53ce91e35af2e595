(* A phomd subprocess and the benchmark's one client connection to it. *)

module Client = Phom_server.Client

type t = { pid : int; banner : in_channel; conn : Client.conn }

(* every daemon still running; killed and reaped at exit whatever happens *)
let running = ref []

let reap pid =
  running := List.filter (( <> ) pid) !running;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ()

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !running)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* start [phomd --jobs 2] on the Unix socket [sock] (a path relative to
   the working directory, which keeps it under the socket-path length
   limit wherever the checkout lives) and connect once it is listening *)
let spawn ~phomd ~sock =
  (try Sys.remove sock with Sys_error _ -> ());
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process phomd
      [| phomd; "--socket"; sock; "--jobs"; "2"; "--default-timeout"; "0" |]
      Unix.stdin wr Unix.stderr
  in
  running := pid :: !running;
  Unix.close wr;
  let banner = Unix.in_channel_of_descr rd in
  (match input_line banner with
  | line when contains ~needle:"listening" line -> ()
  | line -> failwith ("phomd: unexpected banner: " ^ line)
  | exception End_of_file -> failwith "phomd exited before listening");
  match Client.connect ~timeout:10. (Unix.ADDR_UNIX sock) with
  | Ok conn -> { pid; banner; conn }
  | Error e -> failwith ("phomd: connect: " ^ e)

let send t line =
  match Client.send ~timeout:120. t.conn line with
  | Ok reply -> reply
  | Error e -> failwith (Printf.sprintf "phomd: %s: %s" line e)

let stop t =
  (match Client.send ~timeout:30. t.conn "shutdown" with
  | Ok _ -> ()
  | Error _ -> ( try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ()));
  Client.close t.conn;
  reap t.pid;
  close_in_noerr t.banner

let proc_file t name =
  let ic = open_in (Printf.sprintf "/proc/%d/%s" t.pid name) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> In_channel.input_all ic)

(* peak resident set (VmHWM) in MiB *)
let rss_peak_mb t =
  let status = proc_file t "status" in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* user + system CPU time of the daemon so far, in ms (clock ticks of
   1/100 s, the Linux USER_HZ) *)
let cpu_ms t =
  let stat = proc_file t "stat" in
  let after = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' after) in
  (* after the command name: state is field 3, utime 14, stime 15 *)
  float_of_int (int_of_string fields.(11) + int_of_string fields.(12)) *. 10.
