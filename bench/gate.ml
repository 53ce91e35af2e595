(* The bench gate: one row schema, one JSON writer, one JSON reader and one
   comparison rule for every bench suite.

   A suite reports a flat list of rows {suite; instance; metric; kind;
   value} and hands them to [finish], which writes them to --out and, given
   --check-against FILE, compares them with the rows of that checked-in
   baseline. Only rows named by the baseline are tracked; each must appear
   in the run (same suite, instance, metric and kind) and pass the rule of
   its kind:

   - Work: deterministic work units and answers (steps, optima, graph
     sizes, equal-output flags). The run must equal the baseline exactly,
     in either direction: fewer steps than the baseline is a change too,
     and the baseline is refreshed with it.
   - Time: wall-clock seconds. The run may exceed the baseline by
     [time_rel] plus an absolute [time_abs] seconds — runners are noisy and
     the work rows are the exact signal.
   - Floor / Ceiling: guards. In a run the value is the measurement; in a
     baseline it is the bound, which the measurement must stay strictly
     above (Floor) or strictly below (Ceiling). A baseline refresh keeps
     the bounds of the baseline it replaces.

   A baseline with no rows is an error, never a pass. The repo has no JSON
   dependency, so the reader accepts exactly what the writer emits and
   what any JSON tool writes back: an array of flat objects whose fields
   are strings or numbers. *)

type kind = Work | Time | Floor | Ceiling

type row = {
  suite : string;
  instance : string;
  metric : string;
  kind : kind;
  value : float;
}

let time_rel = 0.20
let time_abs = 0.25

(* wall-clock is kept to the microsecond: finer digits are noise *)
let row suite instance metric kind value =
  let value = if kind = Time then Float.round (value *. 1e6) /. 1e6 else value in
  { suite; instance; metric; kind; value }

let of_bool b = if b then 1. else 0.

(* a ratio guard fails on a zero denominator rather than passing it *)
let ratio a b = if b > 0. then a /. b else 0.

let kinds = [ (Work, "work"); (Time, "time"); (Floor, "floor"); (Ceiling, "ceiling") ]
let string_of_kind k = List.assoc k kinds

(* ---- writer ---- *)

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* the shortest text that reads back as the same float, so work rows
   round-trip exactly *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let to_json rows =
  let row_json r =
    if not (Float.is_finite r.value) then
      invalid_arg (Printf.sprintf "Gate.to_json: %s is not a JSON number"
                     (number r.value));
    Printf.sprintf
      "  {\"suite\": %s, \"instance\": %s, \"metric\": %s, \"kind\": %s, \
       \"value\": %s}"
      (quote r.suite) (quote r.instance) (quote r.metric)
      (quote (string_of_kind r.kind))
      (number r.value)
  in
  match rows with
  | [] -> "[]\n"
  | _ -> "[\n" ^ String.concat ",\n" (List.map row_json rows) ^ "\n]\n"

let write path rows =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_json rows))

(* ---- reader ---- *)

type field = Str of string | Num of float

let of_json text =
  let n = String.length text and i = ref 0 in
  let fail what = failwith (Printf.sprintf "%s at byte %d" what !i) in
  let rec skip_ws () =
    if !i < n && String.contains " \t\r\n" text.[!i] then begin
      incr i;
      skip_ws ()
    end
  in
  let peek () =
    skip_ws ();
    if !i < n then Some text.[!i] else None
  in
  let expect c =
    if peek () = Some c then incr i else fail (Printf.sprintf "expected '%c'" c)
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string";
      let c = text.[!i] in
      incr i;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !i >= n then fail "unterminated escape";
          let e = text.[!i] in
          incr i;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' -> (
              if !i + 4 > n then fail "short \\u escape";
              match int_of_string_opt ("0x" ^ String.sub text !i 4) with
              | Some code when code < 0x80 ->
                  i := !i + 4;
                  Buffer.add_char b (Char.chr code)
              | _ -> fail "unsupported \\u escape")
          | _ -> fail "bad escape");
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let num () =
    skip_ws ();
    let start = !i in
    while !i < n && String.contains "+-0123456789.eE" text.[!i] do
      incr i
    done;
    match float_of_string_opt (String.sub text start (!i - start)) with
    | Some v when !i > start -> v
    | _ -> fail "expected a string or a number"
  in
  let obj () =
    expect '{';
    let rec fields acc =
      let key = str () in
      expect ':';
      let v = if peek () = Some '"' then Str (str ()) else Num (num ()) in
      let acc = (key, v) :: acc in
      match peek () with
      | Some ',' ->
          incr i;
          fields acc
      | _ ->
          expect '}';
          acc
    in
    let fields = if peek () = Some '}' then (incr i; []) else fields [] in
    let get key =
      match List.assoc_opt key fields with
      | Some v -> v
      | None -> fail (Printf.sprintf "row without %S" key)
    in
    let s key = match get key with Str s -> s | Num _ -> fail (key ^ " is not a string") in
    let kind =
      match List.find_opt (fun (_, name) -> name = s "kind") kinds with
      | Some (k, _) -> k
      | None -> fail (Printf.sprintf "unknown kind %S" (s "kind"))
    in
    let value = match get "value" with Num v -> v | Str _ -> fail "value is not a number" in
    { suite = s "suite"; instance = s "instance"; metric = s "metric"; kind; value }
  in
  expect '[';
  let rows =
    if peek () = Some ']' then []
    else
      let rec more acc =
        let acc = obj () :: acc in
        if peek () = Some ',' then begin
          incr i;
          more acc
        end
        else List.rev acc
      in
      more []
  in
  expect ']';
  if peek () <> None then fail "trailing text";
  rows

let read path = of_json (In_channel.with_open_bin path In_channel.input_all)

(* ---- the comparison rule ---- *)

let name r = Printf.sprintf "%s/%s/%s" r.suite r.instance r.metric

let judge ~base r =
  let fails fmt = Printf.ksprintf Option.some fmt in
  match base.kind with
  | Work ->
      if r.value = base.value then None
      else fails "%s: %s, baseline %s (work must match exactly)" (name r)
             (number r.value) (number base.value)
  | Time ->
      let limit = (base.value *. (1. +. time_rel)) +. time_abs in
      if r.value <= limit then None
      else fails "%s: %.6fs > %.6fs (baseline %.6fs, +%.0f%% and %.2fs slack)"
             (name r) r.value limit base.value (time_rel *. 100.) time_abs
  | Floor ->
      if r.value > base.value then None
      else fails "%s: %g is not above the floor %g" (name r) r.value base.value
  | Ceiling ->
      if r.value < base.value then None
      else fails "%s: %g is not below the ceiling %g" (name r) r.value base.value

(* every violation of [rows] against [baseline]; [] means the run passes *)
let violations ~baseline rows =
  if baseline = [] then [ "the baseline has no rows" ]
  else
    List.filter_map
      (fun base ->
        match
          List.find_opt
            (fun r ->
              r.suite = base.suite && r.instance = base.instance
              && r.metric = base.metric && r.kind = base.kind)
            rows
        with
        | None ->
            Some (Printf.sprintf "%s (%s): missing from this run" (name base)
                    (string_of_kind base.kind))
        | Some r -> judge ~base r)
      baseline

(* write [rows] to [out], then gate them against the baseline [check] (as
   it was before the write) when one is given: every violation is printed
   and the process exits 1 *)
let finish ~out ?check rows =
  let baseline =
    Option.map
      (fun file ->
        try (file, read file)
        with Failure m | Sys_error m ->
          Printf.eprintf "bench gate: cannot read baseline %s: %s\n" file m;
          exit 1)
      check
  in
  write out rows;
  Printf.printf "  wrote %s\n%!" out;
  match baseline with
  | None -> ()
  | Some (file, baseline) -> (
      match violations ~baseline rows with
      | [] ->
          Printf.printf "  gate: all %d tracked rows within bounds of %s\n%!"
            (List.length baseline) file
      | vs ->
          List.iter (Printf.eprintf "bench gate: %s\n") vs;
          Printf.eprintf "bench gate: %d gate violation(s) vs %s\n%!"
            (List.length vs) file;
          exit 1)
