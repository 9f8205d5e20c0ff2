(* The shared flag vocabulary: the setup term `sias_cli run`/`trace`
   parse, and the overlay the bench fills into every experiment's
   setups. *)

open Cmdliner
module X = Harness.Experiments

let parse term args =
  match Cmd.eval_value ~argv:(Array.of_list ("t" :: args)) (Cmd.v (Cmd.info "t") term) with
  | Ok (`Ok v) -> v
  | _ -> Alcotest.failf "%s did not parse" (String.concat " " args)

let setup = parse Cli.setup
let same msg expected actual = Alcotest.(check bool) msg true (expected = actual)

let test_serializable_checks () =
  Alcotest.(check bool) "si leaves the checker off" false (setup []).X.check_si;
  Alcotest.(check bool) "ssi turns it on" true (setup [ "--isolation"; "ssi" ]).X.check_si;
  Alcotest.(check bool) "alias wsi too" true
    (setup [ "--isolation=write-snapshot" ]).X.check_si

let test_gc_zero () =
  Alcotest.(check (option (float 0.0))) "--gc 0" None (setup [ "--gc"; "0" ]).X.gc_interval_s;
  Alcotest.(check (option (float 0.0))) "default" (Some 10.0) (setup []).X.gc_interval_s

let test_defaults () =
  same "no flags"
    {
      (X.default_setup ~engine:"sias" ~warehouses:20) with
      X.duration_s = 30.0;
      gc_interval_s = Some 10.0;
    }
    (setup []);
  let s = setup [ "-e"; "vectors"; "--faults=5"; "--commit-delay"; "0.002"; "--trace-out"; "t.json" ] in
  Alcotest.(check string) "alias resolved to its key" "sias-v" s.X.engine;
  Alcotest.(check (option int)) "faults" (Some 5) s.X.fault_seed;
  Alcotest.(check (float 0.0)) "commit delay" 0.002 s.X.commit_delay_s;
  Alcotest.(check (option string)) "trace" (Some "t.json") s.X.trace_out

let test_fill_in () =
  let o =
    parse Cli.overlay
      [
        "--faults"; "3"; "--fault-profile"; "heavy"; "--synchronous-commit"; "off";
        "--metrics-out"; "m.prom";
      ]
  in
  let bare = X.default_setup ~engine:"si" ~warehouses:1 in
  same "fills what a setup leaves unset"
    {
      bare with
      X.fault_seed = Some 3;
      fault_profile = Flashsim.Faultdev.heavy;
      synchronous_commit = false;
      metrics_out = Some "m.prom";
    }
    (Cli.fill_in o bare);
  let own =
    {
      bare with
      X.fault_seed = Some 9;
      fault_profile = Flashsim.Faultdev.none;
      commit_delay_s = 0.002;
      metrics_out = Some "own.prom";
      trace_out = Some "own.json";
    }
  in
  same "an experiment's own choices win" own (Cli.fill_in o own);
  same "no flags changes nothing" own (Cli.fill_in (parse Cli.overlay []) own)

let suite =
  [
    Alcotest.test_case "setup: serializable level turns the checker on" `Quick
      test_serializable_checks;
    Alcotest.test_case "setup: --gc 0 disables GC" `Quick test_gc_zero;
    Alcotest.test_case "setup: no flags is the historical default" `Quick test_defaults;
    Alcotest.test_case "overlay: fill-in keeps a setup's own values" `Quick test_fill_in;
  ]
