(* Order statistics and the result line. *)

(* nearest-rank quantile, q in (0, 1] *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let p50 xs = quantile 0.5 xs

(* The tail percentile of [n] samples: the highest one that leaves at
   least ten samples beyond it (never below the median). A run measures a
   fixed number of rounds, so [n], and with it the percentile, is the same
   on every run of a workload. *)
let tail_q n = Float.max 0.5 (float_of_int (n - 10) /. float_of_int n)

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* a metric as the result line carries it *)
type metric = { name : string; value : float; unit_ : string }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  let items =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " items)
