(* The benchmark measures the model without changing it. On tiny copies
   of the default-mix workloads:
   - the bench runner's simulated outputs equal Experiments.run_tpcc's;
   - the engine, device and checker wrappers of a traced round leave
     them unchanged;
   - the traced round's layer self times add up to its run time. *)

open Sias_bench
module X = Harness.Experiments
module W = Tpcc.Tpcc_workload

let tiny (w : Workloads.t) =
  let s = w.Workloads.setup in
  {
    w with
    setup =
      {
        s with
        X.warehouses = min 2 s.X.warehouses;
        scale_div = 300;
        buffer_pages = max 64 (s.buffer_pages / 16);
        terminals_per_warehouse = min 4 s.terminals_per_warehouse;
        duration_s = 10.0;
        gc_interval_s = Option.map (fun _ -> 8.0) s.gc_interval_s;
        seed = 42;
      };
  }

let sim_of_output (o : X.output) =
  {
    Runner.committed = o.X.result.W.total_committed;
    aborted = o.result.total_aborted;
    failed = List.fold_left (fun a (_, k) -> a + k.W.failures) 0 o.result.per_kind;
    notpm = o.result.notpm;
    reads = o.run_read_count;
    writes = o.run_write_count;
    violations =
      (match o.checker with Some c -> Mvcc.Sichecker.violation_count c | None -> 0);
  }

let sim = Alcotest.testable (fun f s -> Format.pp_print_string f (Runner.sim_line "" s)) ( = )

let cost = lazy (Probe.calibrate ())

let case (w : Workloads.t) =
  Alcotest.test_case w.Workloads.name `Quick (fun () ->
      let w = tiny w in
      let expected = sim_of_output (X.run_tpcc w.setup) in
      Alcotest.(check bool) "the run commits work" true (expected.Runner.committed > 10);
      let plain = Runner.round ~traced:false w ~seed:42 in
      Alcotest.check sim "bench runner = run_tpcc" expected plain.Runner.sim;
      let traced = Runner.round ~traced:true w ~seed:42 in
      Alcotest.check sim "traced round = run_tpcc" expected traced.Runner.sim;
      (* Raw self times partition the run: every child span is taken out
         of its parent exactly once. The reported ones also drop the
         calibrated probe cost, which must stay within the 25% tracing
         overhead the benchmark allows. *)
      let raw = Report.accounted_s { Probe.own = 0.0; outer = 0.0 } traced in
      let reported = Report.accounted_s (Lazy.force cost) traced in
      let run = traced.run_s in
      if Float.abs (raw -. run) > 0.02 *. run then
        Alcotest.failf "self times add up to %.4f s of a %.4f s run" raw run;
      if reported > raw || reported < 0.75 *. run then
        Alcotest.failf "probe correction leaves %.4f s of a %.4f s run" reported run)

let () =
  Alcotest.run "benchmark"
    [
      ( "runner",
        List.filter_map
          (fun (w : Workloads.t) ->
            if w.Workloads.mix = Workloads.standard_mix then Some (case w) else None)
          Workloads.all );
    ]
