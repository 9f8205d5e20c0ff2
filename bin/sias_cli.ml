(* sias_cli: run TPC-C workloads and capture block traces from the
   command line.

     dune exec bin/sias_cli.exe -- run --engine sias --warehouses 50
     dune exec bin/sias_cli.exe -- trace --engine si --duration 30
*)

open Cmdliner
open Harness.Experiments
module W = Tpcc.Tpcc_workload
module B = Flashsim.Blocktrace
module C = Sias_txn.Contention

let report_obs o =
  Option.iter
    (fun p -> Format.printf "metrics written to %s@." p)
    o.setup.metrics_out;
  Option.iter (fun p -> Format.printf "trace written to %s@." p) o.setup.trace_out

let report_commit o =
  (* only non-default pipelines print, keeping default output unchanged *)
  if (not o.setup.synchronous_commit) || o.setup.commit_delay_s > 0.0 then begin
    Format.printf "%a" Sias_wal.Commitpipe.pp_stats o.commit_stats;
    if o.setup.wal_device <> None then
      Format.printf "wal device: %.2f MB written@." o.wal_write_mb
  end

let report_repl o =
  (* replication off prints nothing, keeping default output unchanged *)
  match o.repl_stats with
  | None -> ()
  | Some s -> Format.printf "%a" Sias_repl.Repl.pp_stats s

let report_contention o =
  Format.printf "%a" C.pp_stats o.contention_stats;
  match o.checker with
  | None -> ()
  | Some c ->
      Format.printf "%s@." (Mvcc.Sichecker.report c);
      (* under a serializable level the checker's cycle detector is an
         additional oracle: any surviving cycle is a bug *)
      if o.setup.isolation <> "si" then begin
        Format.printf "%s@." (Mvcc.Sichecker.serializability_report c);
        if Mvcc.Sichecker.cycle_count c > 0 then exit 1
      end;
      if Mvcc.Sichecker.violation_count c > 0 then exit 1

let report_tail o =
  report_obs o;
  report_commit o;
  report_repl o;
  report_contention o

let domains_arg =
  Arg.(
    value
    & opt (Cli.at_least 1 int) 1
    & info [ "domains" ]
        ~doc:
          "Shard the run across $(docv) OCaml domains (shared-nothing; warehouses \
           are per domain, TPC-C weak scaling). 1 runs the exact single-domain \
           deterministic path.")

(* --domains N (N > 1): shared-nothing multicore run. Each domain owns
   its warehouse range outright; commits stream through per-domain WAL
   insert slots into one group-commit flusher. Only the flags that are
   meaningful per shard are honored; device/fault/replication topology
   flags are single-domain concerns and rejected loudly rather than
   silently ignored. *)
let run_multicore ~domains s =
  let module MC = Tpcc.Tpcc_multicore in
  let unsupported =
    List.filter_map
      (fun (flag, bad) -> if bad then Some flag else None)
      [
        ("--index paged", s.index <> "array");
        ("--wal-device", s.wal_device <> None);
        ("--repl", s.repl_mode <> None);
        ("--faults", s.fault_seed <> None);
        ("--device", s.device <> Ssd_single);
      ]
  in
  if unsupported <> [] then begin
    Format.printf "--domains > 1 does not support: %s@." (String.concat ", " unsupported);
    exit 2
  end;
  let r =
    MC.run
      {
        MC.engine = s.engine;
        domains;
        base = workload_config s;
        isolation = Mvcc.Isolation.of_string_exn s.isolation;
        buffer_pages = s.buffer_pages;
        bufpool_shards = Stdlib.min 4 s.buffer_pages;
        check = s.check_si;
      }
  in
  Format.printf "%a@." MC.pp_result r;
  if r.MC.violations > 0 then begin
    Format.printf "FAIL: %d snapshot-isolation violations@." r.MC.violations;
    exit 1
  end

let run_cmd =
  let run s domains =
    if domains > 1 then run_multicore ~domains s
    else
    let o = run_tpcc s in
    Format.printf "%a@.@." pp_output_summary o;
    Format.printf "%a@." W.pp_result o.result;
    List.iter
      (fun k ->
        if W.resp_mean o.result k > 0.0 then
          Format.printf "  %-12s resp mean %.4fs p90 %.4fs max %.4fs@."
            (W.tx_kind_to_string k) (W.resp_mean o.result k) (W.resp_p90 o.result k)
            (W.resp_max o.result k))
      W.all_kinds;
    Format.printf "buffer: %d hits, %d misses, %d evictions, %d flushes@."
      o.buf_stats.Sias_storage.Bufpool.hits o.buf_stats.Sias_storage.Bufpool.misses
      o.buf_stats.Sias_storage.Bufpool.evictions o.buf_stats.Sias_storage.Bufpool.flushes;
    if s.fault_seed <> None then
      Format.printf
        "reliability: %d read retries, %d checksum failures, %d pages repaired, %d torn@."
        o.buf_stats.Sias_storage.Bufpool.read_retries
        o.buf_stats.Sias_storage.Bufpool.checksum_failures
        o.buf_stats.Sias_storage.Bufpool.pages_repaired
        o.buf_stats.Sias_storage.Bufpool.torn_pages;
    List.iter (fun (k, v) -> Format.printf "device: %-28s %.2f@." k v) o.device_info;
    report_tail o
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a TPC-C benchmark and report throughput, latency and I/O.")
    Term.(const run $ Cli.setup $ domains_arg)

let trace_cmd =
  let csv_arg =
    Arg.(value & opt (some string) None & info [ "csv" ] ~doc:"Write the trace to $(docv).")
  in
  let run s csv =
    let o = run_tpcc { s with keep_trace_records = true } in
    print_endline (B.render_scatter o.trace);
    Format.printf "reads %d (%.1f MB) | writes %d (%.1f MB)@." (B.read_count o.trace)
      o.run_read_mb (B.write_count o.trace) o.run_write_mb;
    (match csv with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (B.to_csv o.trace);
        close_out oc;
        Format.printf "trace written to %s@." path);
    report_tail o
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run a workload and render its block trace (paper Figures 3/4).")
    Term.(const run $ Cli.setup $ csv_arg)

(* ---- chaos: crash-schedule exploration + out-of-space smoke ---- *)

let chaos_cmd =
  let module Explorer = Sias_chaos.Explorer in
  let module Chaosrun = Harness.Chaosrun in
  let module Commitpipe = Sias_wal.Commitpipe in
  let commit_modes =
    [
      ("sync", Commitpipe.Sync);
      ("group", Commitpipe.Group { delay = 0.005 });
      ("async", Commitpipe.Async { interval = 0.01; max_bytes = 1 lsl 14 });
    ]
  in
  let engines_arg =
    Arg.(
      value
      & opt (list Cli.engine_conv) [ "si"; "si-cv"; "sias"; "sias-v" ]
      & info [ "e"; "engines" ] ~docv:"ENGINES"
          ~doc:"Comma-separated engines to explore.")
  in
  let modes_arg =
    Arg.(
      value
      & opt (list (enum (List.map (fun (m, _) -> (m, m)) commit_modes))) [ "sync"; "group"; "async" ]
      & info [ "modes" ] ~docv:"MODES"
          ~doc:"Commit modes to cross with the engines (sync, group, async).")
  in
  let standby_arg =
    Arg.(
      value & flag
      & info [ "standby" ] ~doc:"Also explore primary-crash failover schedules.")
  in
  let budget_arg =
    Arg.(
      value & opt int 60
      & info [ "budget" ] ~docv:"N"
          ~doc:"Schedule budget per engine/mode (sampled; see $(b,--full)).")
  in
  let full_arg =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:"Full enumeration: drop the schedule budget (CI nightly mode).")
  in
  let oos_arg =
    Arg.(
      value & opt bool true
      & info [ "oos" ] ~docv:"BOOL"
          ~doc:"Also run the out-of-space reclamation/degradation scenarios.")
  in
  let run engines isolation index modes standby budget full oos =
    let failures = ref 0 in
    let cfg ?(depth2 = true) () =
      {
        Explorer.hits_per_point = 2;
        depth2;
        max_schedules = (if full then None else Some budget);
      }
    in
    let report name (r : Explorer.report) =
      Format.printf "== %-18s %3d workload pts, %2d recovery pts, %4d schedules, %d failures@."
        name
        (List.length r.Explorer.points)
        (List.length r.Explorer.recovery_points)
        r.Explorer.schedules_run
        (List.length r.Explorer.failures);
      List.iter
        (fun f ->
          incr failures;
          Format.printf "   FAIL %s: %s@."
            (Explorer.schedule_to_string f.Explorer.schedule)
            f.Explorer.error)
        r.Explorer.failures
    in
    List.iter
      (fun e ->
        List.iter
          (fun m ->
            report
              (Printf.sprintf "%s/%s" e m)
              (Chaosrun.explore ~cfg:(cfg ())
                 (Chaosrun.config ~isolation ~index
                    ~commit_mode:(List.assoc m commit_modes) e)))
          modes;
        if standby then
          report (e ^ "/standby")
            (Chaosrun.explore
               ~cfg:(cfg ~depth2:false ())
               (Chaosrun.config ~isolation ~index ~standby:true e)))
      engines;
    if oos then
      List.iter
        (fun e ->
          let o = Chaosrun.oos_run ~engine:e ~wal_capacity_bytes:20_000 ~ops:400 () in
          let live =
            o.Chaosrun.reclaims > 0 && o.Chaosrun.degraded = None
            && o.Chaosrun.read_only_errors = 0 && o.Chaosrun.consistent
          in
          let h = Chaosrun.oos_run ~hold:true ~engine:e ~wal_capacity_bytes:12_000 ~ops:400 () in
          let loud =
            (h.Chaosrun.read_only_errors > 0 || h.Chaosrun.shed > 0)
            && (h.Chaosrun.degraded <> None || h.Chaosrun.backpressure_on > 0)
            && h.Chaosrun.consistent
          in
          if not live then incr failures;
          if not loud then incr failures;
          Format.printf
            "== oos %-10s reclaim: %d reclaims, %d/%d committed, %s | hold: %d shed, %d refused, %s@."
            e o.Chaosrun.reclaims o.Chaosrun.committed o.Chaosrun.attempted
            (if live then "ok" else "FAIL")
            h.Chaosrun.shed h.Chaosrun.read_only_errors
            (if loud then "ok" else "FAIL"))
        engines;
    if !failures > 0 then begin
      Format.printf "chaos: %d failures@." !failures;
      exit 1
    end;
    Format.printf "chaos: all schedules verified@."
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Explore deterministic crash schedules (every instrumented crash \
          point, including crashes during recovery) and the out-of-space \
          degradation scenarios; non-zero exit if any schedule fails to \
          recover to the model prefix.")
    Term.(
      const run $ engines_arg $ Cli.isolation $ Cli.index $ modes_arg $ standby_arg
      $ budget_arg $ full_arg $ oos_arg)

let () =
  let info = Cmd.info "sias_cli" ~doc:"SIAS: snapshot-isolation append storage workbench." in
  Cli.eval (Cmd.group info [ run_cmd; trace_cmd; chaos_cmd ])
