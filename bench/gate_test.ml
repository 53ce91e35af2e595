(* The bench gate's writer, reader and comparison rule. *)

let row = Gate.row "s" "i"

let rows_t =
  Alcotest.testable
    (fun ppf rs -> Format.pp_print_string ppf (Gate.to_json rs))
    ( = )

let passes ~baseline rows =
  Alcotest.(check (list string)) "no violations" [] (Gate.violations ~baseline rows)

let fails ~baseline rows =
  Alcotest.(check int) "one violation" 1
    (List.length (Gate.violations ~baseline rows))

let test_round_trip () =
  let rows =
    [
      Gate.row "exact" "card-12x20/mwc" "steps" Work 2298.;
      Gate.row "exact" "sim-14x20/mwc" "optimum" Work 5.575;
      Gate.row "dp" "quote\"back\\slash\ttab" "seconds" Time 0.1;
      Gate.row "obs" "warm-serve" "overhead_percent" Ceiling (-1e-7);
      Gate.row "fleet" "failover" "blip_seconds" Floor (1. /. 3.);
      Gate.row "big" "i" "m" Work 1e300;
    ]
  in
  Alcotest.check rows_t "round trip" rows (Gate.of_json (Gate.to_json rows));
  Alcotest.check rows_t "empty" [] (Gate.of_json (Gate.to_json []));
  (* what a JSON tool writes back after editing a baseline *)
  Alcotest.check rows_t "foreign layout"
    [ row "steps" Work 3.; row "t" Time 0.5 ]
    (Gate.of_json
       "[{\"value\":3.0,\"kind\":\"work\",\"metric\":\"steps\",\"instance\":\"i\",\n\
       \  \"suite\":\"s\"} , {\"suite\": \"s\", \"instance\": \"i\", \
        \"metric\": \"t\", \"kind\": \"time\", \"value\": 5e-1}]");
  let path = Filename.temp_file "gate_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Gate.write path rows;
      Alcotest.check rows_t "through a file" rows (Gate.read path))

let test_malformed () =
  List.iter
    (fun text ->
      match Gate.of_json text with
      | _ -> Alcotest.failf "accepted %S" text
      | exception Failure _ -> ())
    [
      "";
      "{}";
      "[";
      "[{\"suite\": \"s\"}]";
      "[{\"suite\": \"s\", \"instance\": \"i\", \"metric\": \"m\", \"kind\": \
       \"speed\", \"value\": 1}]";
      "[{\"suite\": \"s\", \"instance\": \"i\", \"metric\": \"m\", \"kind\": \
       \"work\", \"value\": \"1\"}]";
      "[] trailing";
    ]

let test_work () =
  let baseline = [ row "steps" Work 100. ] in
  passes ~baseline [ row "steps" Work 100. ];
  fails ~baseline [ row "steps" Work 101. ];
  fails ~baseline [ row "steps" Work 99. ];
  fails ~baseline [ row "steps" Work Float.nan ]

let test_time () =
  (* the limit is 1.0 * 1.2 + 0.25 = 1.45 s *)
  let baseline = [ row "seconds" Time 1.0 ] in
  passes ~baseline [ row "seconds" Time 0.01 ];
  passes ~baseline [ row "seconds" Time 1.44 ];
  fails ~baseline [ row "seconds" Time 1.46 ]

let test_missing () =
  let baseline = [ row "steps" Work 1.; row "seconds" Time 1. ] in
  fails ~baseline [ row "steps" Work 1. ];
  fails ~baseline [ row "steps" Work 1.; row "seconds" Work 1. ];
  fails ~baseline [ row "steps" Work 1.; Gate.row "s" "other" "seconds" Time 1. ];
  (* rows the baseline does not track are reported, not gated *)
  passes ~baseline
    [ row "steps" Work 1.; row "seconds" Time 1.; row "new" Work 7. ]

let test_guards () =
  let floor = [ row "speedup" Floor 10. ] in
  passes ~baseline:floor [ row "speedup" Floor 10.5 ];
  fails ~baseline:floor [ row "speedup" Floor 10. ];
  fails ~baseline:floor [ row "speedup" Floor 3. ];
  let ceiling = [ row "overhead" Ceiling 2. ] in
  passes ~baseline:ceiling [ row "overhead" Ceiling (-0.5) ];
  fails ~baseline:ceiling [ row "overhead" Ceiling 2. ];
  fails ~baseline:ceiling [ row "overhead" Ceiling 2.3 ]

let test_empty_baseline () =
  fails ~baseline:[] [];
  fails ~baseline:[] [ row "steps" Work 1. ];
  fails ~baseline:(Gate.of_json "[]") [ row "steps" Work 1. ]

let () =
  Alcotest.run "bench"
    [
      ( "gate",
        [
          Alcotest.test_case "writer-reader round trip" `Quick test_round_trip;
          Alcotest.test_case "reader rejects malformed files" `Quick
            test_malformed;
          Alcotest.test_case "work must match exactly" `Quick test_work;
          Alcotest.test_case "time within its slack" `Quick test_time;
          Alcotest.test_case "tracked row missing from the run" `Quick
            test_missing;
          Alcotest.test_case "floor and ceiling guards" `Quick test_guards;
          Alcotest.test_case "empty baseline is an error" `Quick
            test_empty_baseline;
        ] );
    ]
