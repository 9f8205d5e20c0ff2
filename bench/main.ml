(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) plus ablation benches for the design choices
   called out in DESIGN.md.

     dune exec bench/main.exe                 -- all experiments, quick mode
     dune exec bench/main.exe -- table1       -- one experiment
     dune exec bench/main.exe -- --full all   -- paper-scale parameters

   Absolute numbers are not expected to match the paper (the substrate is
   a simulator, not the authors' testbed); the shapes are: who wins, by
   roughly what factor, where the crossovers fall. EXPERIMENTS.md records
   paper-vs-measured for each artifact. *)

open Harness.Experiments
module W = Tpcc.Tpcc_workload
module T = Sias_util.Tablefmt
module B = Flashsim.Blocktrace

(* What every experiment is handed: paper-scale or quick parameters, the
   run function (run_tpcc under the command line's overlay), and the
   --bench-baseline JSON path. *)
type ctx = { full : bool; run : setup -> output; baseline : string option }

(* A BENCH JSON value; a section prints all its numbers with one
   precision. *)
type json = Num of float | Obj of (string * json) list

(* What an experiment leaves behind besides its stdout: its BENCH JSON
   sections (name, decimals, body) and its gate failures, each a line
   printed after the JSON is written. *)
type outcome = { sections : (string * int * json) list; failures : string list }

let nothing = { sections = []; failures = [] }

let fields kvs = Obj (List.map (fun (k, v) -> (k, Num v)) kvs)

(* One section of (row key, metric fields) rows. *)
let rows ?(decimals = 1) name rs =
  (name, decimals, Obj (List.map (fun (k, fs) -> (k, fields fs)) rs))

(* A gate's failure line, when its violation count is nonzero. *)
let gate count fmt = if count > 0 then [ Printf.sprintf fmt count ] else []

let section title =
  Printf.printf "\n============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "============================================================\n%!"

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Table 1: write amount (MB) and reduction, SI vs SIAS-t1 vs SIAS-t2  *)

let table1 c =
  section "Table 1: Write Amount (MB) and Reduction (%) -- TPC-C 100 WH, SSD";
  let durations = if c.full then [ 600.0; 900.0; 1800.0 ] else [ 60.0; 120.0 ] in
  let base =
    {
      (default_setup ~engine:"si" ~warehouses:100) with
      buffer_pages = 4096;
      gc_interval_s = Some 30.0;
      keep_trace_records = false;
    }
  in
  let tbl =
    T.create [ "Time(sec.)"; "SI"; "SIAS-t1"; "SIAS-t2"; "Red t1"; "Red t2" ]
  in
  let spaces = ref [] in
  List.iter
    (fun duration_s ->
      let cell engine flush =
        c.run
          { base with engine; flush; duration_s; checkpoint_interval_s = duration_s /. 2.0 }
      in
      let si = cell "si" T1 in
      let t1 = cell "sias" T1 in
      let t2 = cell "sias" T2 in
      spaces := (duration_s, si, t1, t2) :: !spaces;
      let red x = 1.0 -. (x.run_write_mb /. si.run_write_mb) in
      T.add_row tbl
        [
          T.fmt_float ~decimals:0 duration_s;
          T.fmt_float ~decimals:1 si.run_write_mb;
          T.fmt_float ~decimals:1 t1.run_write_mb;
          T.fmt_float ~decimals:1 t2.run_write_mb;
          T.fmt_pct (red t1);
          T.fmt_pct (red t2);
        ])
    durations;
  T.print tbl;
  (match !spaces with
  | (_, si, t1, t2) :: _ ->
      note "space consumption (longest run): SI %.1f MB | SIAS-t1 %.1f MB | SIAS-t2 %.1f MB"
        si.space_mb t1.space_mb t2.space_mb;
      note "SIAS-t2 page fill %.0f%% vs SIAS-t1 %.0f%% (t1 seals sparse pages early)"
        (100.0 *. t2.avg_fill) (100.0 *. t1.avg_fill);
      note "paper: 65%% reduction at t1, 97%% at t2; t2 space -12%% vs t1"
  | [] -> ())

(* ------------------------------------------------------------------ *)
(* Table 2: TPC-C on HDD -- throughput (NOTPM) and response time (sec) *)

let table2 c =
  section "Table 2: TPC-C on HDD -- NOTPM and response time (sec.)";
  let whs = if c.full then [ 30; 40; 50; 60; 75; 100 ] else [ 30; 50; 75 ] in
  let run engine warehouses =
    c.run
      {
        (default_setup ~engine ~warehouses) with
        device = Hdd_single;
        buffer_pages = 4096;
        duration_s = (if c.full then 120.0 else 60.0);
        gc_interval_s = Some 30.0;
      }
  in
  let cells = List.map (fun wh -> (wh, run "sias" wh, run "si" wh)) whs in
  let tbl = T.create ("Warehouses" :: List.map string_of_int whs) in
  let row name get = T.add_row tbl (name :: List.map get cells) in
  row "SIAS (NOTPM)" (fun (_, sias, _) -> T.fmt_float ~decimals:0 sias.result.W.notpm);
  row "SI (NOTPM)" (fun (_, _, si) -> T.fmt_float ~decimals:0 si.result.W.notpm);
  row "SIAS (sec.)" (fun (_, sias, _) ->
      T.fmt_float ~decimals:3 (W.resp_mean sias.result W.New_order));
  row "SI (sec.)" (fun (_, _, si) ->
      T.fmt_float ~decimals:3 (W.resp_mean si.result W.New_order));
  T.print tbl;
  note "paper: SIAS throughput rises with WHs while SI decays; SI response";
  note "times explode (11.7 s at 30 WH to 123 s at 100 WH), SIAS stays responsive."

(* ------------------------------------------------------------------ *)
(* Figures 3 and 4: blocktraces                                         *)

let figure_blocktrace c engine figure_name paper_note =
  section
    (Printf.sprintf "%s: blocktrace -- %s -- SSD, 100 WH, %s" figure_name
       (engine_name engine)
       (if c.full then "300 sec." else "60 sec."));
  let o =
    c.run
      {
        (default_setup ~engine ~warehouses:100) with
        buffer_pages = 4096;
        duration_s = (if c.full then 300.0 else 60.0);
        gc_interval_s = Some 30.0;
        keep_trace_records = true;
      }
  in
  print_endline (B.render_scatter o.trace);
  let reads = B.read_count o.trace and writes = B.write_count o.trace in
  note "reads %d (%.1f MB) | writes %d (%.1f MB) | %.0f%% of requests are reads" reads
    o.run_read_mb writes o.run_write_mb
    (100.0 *. float_of_int reads /. float_of_int (max 1 (reads + writes)));
  note "write sequentiality %.0f%% | read sequentiality %.0f%%"
    (100.0 *. B.sequentiality o.trace B.Write)
    (100.0 *. B.sequentiality o.trace B.Read);
  note "%s" paper_note

let figure3 c =
  figure_blocktrace c "sias" "Figure 3"
    "paper: almost only read access; appends form per-relation swimlanes"

let figure4 c =
  figure_blocktrace c "si" "Figure 4"
    "paper: read and write access mixed; writes scattered across the relations"

(* ------------------------------------------------------------------ *)
(* Figures 5 and 6: throughput/response vs warehouses on SSD RAIDs      *)

let sweep c ~device ~buffer_pages ~whs ~duration_s =
  List.map
    (fun warehouses ->
      let run engine =
        c.run
          {
            (default_setup ~engine ~warehouses) with
            device;
            buffer_pages;
            duration_s;
            scale_div = 300;
            gc_interval_s = Some 30.0;
          }
      in
      (warehouses, run "sias", run "si"))
    whs

let print_sweep cells =
  let tbl =
    T.create
      [ "WH"; "SIAS NOTPM"; "SI NOTPM"; "SIAS resp(s)"; "SI resp(s)"; "SIAS W MB"; "SI W MB" ]
  in
  List.iter
    (fun (wh, sias, si) ->
      T.add_row tbl
        [
          string_of_int wh;
          T.fmt_float ~decimals:0 sias.result.W.notpm;
          T.fmt_float ~decimals:0 si.result.W.notpm;
          T.fmt_float ~decimals:3 (W.resp_mean sias.result W.New_order);
          T.fmt_float ~decimals:3 (W.resp_mean si.result W.New_order);
          T.fmt_float ~decimals:1 sias.run_write_mb;
          T.fmt_float ~decimals:1 si.run_write_mb;
        ])
    cells;
  T.print tbl;
  let peak get =
    List.fold_left
      (fun (bw, bn) (wh, sias, si) ->
        let n = get (sias, si) in
        if n > bn then (wh, n) else (bw, bn))
      (0, 0.0) cells
  in
  let sias_wh, sias_n = peak (fun (sias, _) -> sias.result.W.notpm) in
  let si_wh, si_n = peak (fun (_, si) -> si.result.W.notpm) in
  note "peaks: SIAS %.0f NOTPM @ %d WH | SI %.0f NOTPM @ %d WH" sias_n sias_wh si_n si_wh

let figure5 c =
  section "Figure 5: TPC-C on a two-SSD RAID-0 -- throughput vs warehouses";
  let whs =
    if c.full then [ 50; 100; 200; 300; 400; 450; 500; 530; 600 ] else [ 50; 150; 300; 450 ]
  in
  print_sweep
    (sweep c ~device:(Ssd_raid 2) ~buffer_pages:3072 ~whs
       ~duration_s:(if c.full then 120.0 else 60.0));
  note "paper: SIAS sustains higher throughput as WHs grow (+30%% at the top)"

let figure6 c =
  section "Figure 6: TPC-C on a six-SSD RAID-0 -- throughput and response time";
  let whs =
    if c.full then [ 100; 200; 300; 400; 450; 500; 530; 600 ] else [ 100; 300; 450; 530 ]
  in
  print_sweep
    (sweep c ~device:(Ssd_raid 6) ~buffer_pages:6144 ~whs
       ~duration_s:(if c.full then 120.0 else 60.0));
  note "paper: SI peaks at 450 WH (4862 NOTPM, 4.8 s resp.); SIAS peaks at";
  note "530 WH (6182 NOTPM, 3.3 s resp.) -- about 30%% more throughput."

(* ------------------------------------------------------------------ *)
(* Ablations (not in the paper's tables; design choices of DESIGN.md)  *)

let ablation_scan _ =
  section "Ablation: SIAS scan via VID_map vs traditional relation scan (Sec. 4.2.1)";
  let module E = Mvcc.Sias_engine in
  let db = Mvcc.Db.create ~buffer_pages:256 () in
  let eng = E.create db in
  let table = E.create_table eng ~name:"t" ~pk_col:0 () in
  let txn = E.begin_txn eng in
  for k = 1 to 5_000 do
    E.insert eng txn table [| Mvcc.Value.Int k; Mvcc.Value.Str (String.make 60 'x') |]
    |> Result.get_ok
  done;
  E.commit eng txn |> Result.get_ok;
  (* version bloat: update a third of the items a few times *)
  for _ = 1 to 3 do
    let txn = E.begin_txn eng in
    for k = 1 to 5_000 do
      if k mod 3 = 0 then E.update eng txn table ~pk:k (fun r -> r) |> Result.get_ok
    done;
    E.commit eng txn |> Result.get_ok
  done;
  Sias_storage.Bufpool.flush_all db.Mvcc.Db.pool ~sync:false;
  let clock = db.Mvcc.Db.clock in
  let time_scan scan =
    let t0 = Sias_util.Simclock.now clock in
    let txn = E.begin_txn eng in
    let n = scan eng txn table (fun _ -> ()) in
    E.commit eng txn |> Result.get_ok;
    (n, Sias_util.Simclock.now clock -. t0)
  in
  let n1, t_vid = time_scan E.scan in
  let n2, t_trad = time_scan E.scan_traditional in
  note "vidmap scan:      %d rows in %.4f simulated s" n1 t_vid;
  note "traditional scan: %d rows in %.4f simulated s (%.1fx slower)" n2 t_trad
    (t_trad /. Float.max 1e-9 t_vid);
  note "the traditional scan fetches every tuple version and re-resolves each"

let ablation_vectors c =
  section
    "Ablation: version placement -- SI (FSM) vs SI-CV ([18]) vs SIAS-Chains vs SIAS-V";
  let run engine =
    c.run
      {
        (default_setup ~engine ~warehouses:20) with
        duration_s = 30.0;
        buffer_pages = 1024;
        gc_interval_s = Some 30.0;
      }
  in
  let tbl = T.create [ "variant"; "NOTPM"; "writes MB"; "reads MB"; "space MB" ] in
  List.iter
    (fun engine ->
      let o = run engine in
      T.add_row tbl
        [
          engine_name engine;
          T.fmt_float ~decimals:0 o.result.W.notpm;
          T.fmt_float o.run_write_mb;
          T.fmt_float o.run_read_mb;
          T.fmt_float o.space_mb;
        ])
    [ "si"; "si-cv"; "sias"; "sias-v" ];
  T.print tbl;
  note "SI-CV co-locates a transaction's new versions (fewer dirty pages than";
  note "FSM placement) but keeps in-place invalidation; SIAS removes it entirely.";
  note "SIAS-V trades vector re-append amplification for single-fetch reads."

let ablation_gc c =
  section "Ablation: SIAS garbage collection on/off -- space and version bloat";
  (* long, update-heavy run: enough version churn for page decay *)
  let run gc =
    c.run
      {
        (default_setup ~engine:"sias" ~warehouses:10) with
        duration_s = (if c.full then 300.0 else 120.0);
        buffer_pages = 1024;
        think_time_s = 0.2;
        gc_interval_s = gc;
      }
  in
  let without = run None in
  let with_gc = run (Some 10.0) in
  note "gc off:        space %.1f MB, page fill %.0f%%" without.space_mb
    (100.0 *. without.avg_fill);
  note "gc every 10 s: space %.1f MB, page fill %.0f%%" with_gc.space_mb
    (100.0 *. with_gc.avg_fill);
  note "paper (Sec. 6): GC re-inserts live versions of victim pages and discards";
  note "dead ones; reclamation is a TRIM, not a write."

let ablation_noftl _ =
  section "Ablation: NoFTL -- append pattern on raw Flash (paper Discussion, [22])";
  let module N = Flashsim.Noftl in
  let module B = Flashsim.Blocktrace in
  let budget = 4096 in
  (* SIAS-like: strict appends + explicit region erases by the DBMS *)
  let append = N.create (N.default_config ~blocks:128 ()) in
  let t_append = ref 0.0 in
  let pages = 127 * 64 in
  for i = 0 to budget - 1 do
    let page = i mod pages in
    if page mod 64 = 0 && i >= pages then
      t_append := !t_append +. N.erase_region append ~sector:(page * 8);
    t_append := !t_append +. N.service_time append B.Write ~sector:(page * 8) ~bytes:4096
  done;
  (* SI-like: scattered in-place rewrites of a hot region *)
  let inplace = N.create (N.default_config ~blocks:128 ()) in
  let rng = Sias_util.Rng.create 11 in
  let t_inplace = ref 0.0 in
  for _ = 0 to budget - 1 do
    let page = Sias_util.Rng.int rng 512 in
    t_inplace := !t_inplace +. N.service_time inplace B.Write ~sector:(page * 8) ~bytes:4096
  done;
  let tbl = T.create [ "pattern"; "service time (s)"; "erases"; "block RMWs"; "max wear" ] in
  T.add_row tbl
    [ "append + DBMS erase"; T.fmt_float ~decimals:4 !t_append;
      string_of_int (N.erases append); string_of_int (N.rmws append); "-" ];
  T.add_row tbl
    [ "in-place rewrites"; T.fmt_float ~decimals:4 !t_inplace;
      string_of_int (N.erases inplace); string_of_int (N.rmws inplace); "-" ];
  T.print tbl;
  note "on FTL-less Flash the append discipline is ~%.0fx cheaper and wears the"
    (!t_inplace /. Float.max 1e-9 !t_append);
  note "device far less; GC-driven erases are deterministic, not device background work"

let ablation_vidmap c =
  section "Ablation: VID_map residency -- in-memory vs paged through the buffer pool";
  let run vidmap_paged =
    c.run
      {
        (default_setup ~engine:"sias" ~warehouses:50) with
        duration_s = 30.0;
        buffer_pages = 1024;
        gc_interval_s = Some 30.0;
        vidmap_paged;
      }
  in
  let mem = run false in
  let paged = run true in
  note "in-memory VID_map: %.0f NOTPM, reads %.1f MB, writes %.1f MB" mem.result.W.notpm
    mem.run_read_mb mem.run_write_mb;
  note "paged VID_map:     %.0f NOTPM, reads %.1f MB, writes %.1f MB" paged.result.W.notpm
    paged.run_read_mb paged.run_write_mb;
  note "paper 4.1.3: on large databases the map spills to disk through the";
  note "ordinary buffer machinery; bucket pages then compete for frames."

let ablation_endurance c =
  section "Ablation: Flash endurance -- device-level wear under SI vs SIAS (Sec. 6)";
  let run engine =
    c.run
      {
        (default_setup ~engine ~warehouses:50) with
        (* a small drive (256 MB physical) so the cumulative write volume
           turns the device over several times and its GC must work *)
        device = Ssd_sized 1024;
        duration_s = (if c.full then 300.0 else 90.0);
        buffer_pages = 2048;
        gc_interval_s = Some 30.0;
      }
  in
  let tbl =
    T.create [ "engine"; "host writes"; "NAND writes"; "WA"; "erases"; "max block wear" ]
  in
  List.iter
    (fun engine ->
      let o = run engine in
      let get k = try List.assoc k o.device_info with Not_found -> 0.0 in
      T.add_row tbl
        [
          engine_name engine;
          T.fmt_float ~decimals:0 (get "host_writes");
          T.fmt_float ~decimals:0 (get "nand_writes");
          T.fmt_float ~decimals:2 (get "write_amplification");
          T.fmt_float ~decimals:0 (get "erases");
          T.fmt_float ~decimals:0 (get "max_block_wear");
        ])
    [ "si"; "sias" ];
  T.print tbl;
  note "SIAS's append pattern + TRIM of reclaimed pages leaves the FTL almost";
  note "nothing to relocate: fewer erases and lower peak wear per unit of work";
  note "(paper Sec. 6: the I/O pattern suggests increased Flash endurance)."

let ablation_contention c =
  section "Contention: conflict policies -- TPC-C 1 WH, 8 terminals, retries 5, SI checker on";
  let module C = Sias_txn.Contention in
  let tbl =
    T.create
      [ "engine"; "policy"; "NOTPM"; "conflicts"; "retries"; "give-ups"; "victims"; "SI check" ]
  in
  List.iter
    (fun engine ->
      List.iter
        (fun policy ->
          let o =
            c.run
              {
                (default_setup ~engine ~warehouses:1) with
                duration_s = (if c.full then 60.0 else 10.0);
                buffer_pages = 1024;
                scale_div = 300;
                terminals_per_warehouse = 8;
                think_time_s = 0.2;
                gc_interval_s = Some 30.0;
                contention = { C.default_settings with C.policy };
                retries = 5;
                check_si = true;
              }
          in
          let r = o.result in
          let sum get = List.fold_left (fun t (_, ks) -> t + get ks) 0 r.W.per_kind in
          let cs = o.contention_stats in
          let verdict =
            match o.checker with
            | Some c when Mvcc.Sichecker.violation_count c = 0 -> "OK"
            | Some c ->
                Printf.sprintf "%d VIOLATIONS" (Mvcc.Sichecker.violation_count c)
            | None -> "-"
          in
          T.add_row tbl
            [
              engine_name engine;
              C.policy_to_string policy;
              T.fmt_float ~decimals:0 r.W.notpm;
              string_of_int (sum (fun ks -> ks.W.conflicts));
              string_of_int (sum (fun ks -> ks.W.retries));
              string_of_int (sum (fun ks -> ks.W.gave_ups));
              string_of_int cs.C.victim_aborts;
              verdict;
            ])
        C.all_policies)
    [ "si"; "si-cv"; "sias"; "sias-v" ];
  T.print tbl;
  note "the driver is a serial discrete-event loop: transactions never overlap, so";
  note "client-visible conflicts stay at zero and every policy agrees; policies and";
  note "the retry loop differentiate under the interleaved-transaction test suite."

let ablation_groupcommit c =
  section
    "Commit pipeline: sync vs group vs async -- TPC-C 1 WH, WAL on its own SSD";
  let modes =
    [ ("sync", true, 0.0); ("group", true, 0.0007); ("async", false, 0.0) ]
  in
  let terminal_counts = if c.full then [ 8; 16; 32 ] else [ 8; 16 ] in
  let tbl =
    T.create
      [
        "engine"; "terms"; "mode"; "NOTPM"; "resp(ms)"; "fsyncs"; "saved";
        "max grp"; "walwr"; "WAL MB";
      ]
  in
  List.iter
    (fun engine ->
      List.iter
        (fun terminals ->
          List.iter
            (fun (label, sync_commit, delay) ->
              let o =
                c.run
                  {
                    (default_setup ~engine ~warehouses:1) with
                    duration_s = 30.0;
                    buffer_pages = 4096;
                    scale_div = 300;
                    terminals_per_warehouse = terminals;
                    (* saturation regime: terminals pile up inside the
                       commit window, so sharing the fsync pays *)
                    think_time_s = 0.005;
                    gc_interval_s = Some 30.0;
                    synchronous_commit = sync_commit;
                    commit_delay_s = delay;
                    wal_device = Some Ssd_single;
                  }
              in
              let cs = o.commit_stats in
              T.add_row tbl
                [
                  engine_name engine;
                  string_of_int terminals;
                  label;
                  T.fmt_float ~decimals:0 o.result.W.notpm;
                  T.fmt_float ~decimals:2
                    (1000.0 *. W.resp_mean o.result W.New_order);
                  string_of_int cs.Sias_wal.Commitpipe.commit_fsyncs;
                  string_of_int cs.Sias_wal.Commitpipe.fsyncs_saved;
                  string_of_int cs.Sias_wal.Commitpipe.max_group;
                  string_of_int cs.Sias_wal.Commitpipe.walwriter_flushes;
                  T.fmt_float ~decimals:1 o.wal_write_mb;
                ])
            modes)
        terminal_counts)
    [ "si"; "si-cv"; "sias"; "sias-v" ];
  T.print tbl;
  note "group: commits arriving within commit_delay share one fsync and are";
  note "charged its completion; async: commit acks at WAL append and the";
  note "WAL-writer trickle bounds the loss window (never corruption).";
  note "postgres: commit_delay / synchronous_commit=off, on a simulated SSD."

let ablation_repl c =
  section
    "Replication: standby lag vs commit_delay -- TPC-C 1 WH, lossy WAL-shipping link";
  let module R = Sias_repl.Repl in
  let delays = if c.full then [ 0.0; 0.0005; 0.002 ] else [ 0.0; 0.002 ] in
  let tbl =
    T.create
      [
        "engine"; "mode"; "delay(ms)"; "NOTPM"; "shipped"; "installed"; "lag";
        "retrans"; "degraded"; "drops";
      ]
  in
  let results =
    List.concat_map
      (fun engine ->
        List.concat_map
          (fun (mode : R.mode) ->
            List.map
              (fun delay ->
                let o =
                  c.run
                    {
                      (default_setup ~engine ~warehouses:1) with
                      duration_s = (if c.full then 30.0 else 10.0);
                      buffer_pages = 4096;
                      scale_div = 300;
                      terminals_per_warehouse = 8;
                      think_time_s = 0.005;
                      gc_interval_s = Some 30.0;
                      commit_delay_s = delay;
                      wal_device = Some Ssd_single;
                      repl_mode = Some mode;
                      repl_link = Sias_repl.Link.lossy;
                    }
                in
                let rs = Option.get o.repl_stats in
                T.add_row tbl
                  [
                    engine_name engine;
                    rs.R.mode_label;
                    T.fmt_float ~decimals:2 (1000.0 *. delay);
                    T.fmt_float ~decimals:0 o.result.W.notpm;
                    string_of_int rs.R.shipped_records;
                    string_of_int rs.R.installed_records;
                    string_of_int rs.R.lag_records;
                    string_of_int rs.R.retransmits;
                    string_of_int rs.R.degraded_acks;
                    string_of_int rs.R.link_dropped;
                  ];
                ( Printf.sprintf "%s/%s/delay%gms" engine rs.R.mode_label
                    (1000.0 *. delay),
                  [
                    ("notpm", o.result.W.notpm);
                    ("shipped_records", float_of_int rs.R.shipped_records);
                    ("installed_records", float_of_int rs.R.installed_records);
                    ("lag_records", float_of_int rs.R.lag_records);
                    ("retransmits", float_of_int rs.R.retransmits);
                    ("degraded_acks", float_of_int rs.R.degraded_acks);
                    ("link_dropped", float_of_int rs.R.link_dropped);
                  ] ))
              delays)
          [ R.Ship_async; R.Remote_flush ])
      [ "si"; "si-cv"; "sias"; "sias-v" ]
  in
  T.print tbl;
  note "async ships after local fsync: commits never wait, lag is whatever the";
  note "lossy link and go-back-N leave outstanding. remote-flush makes the";
  note "commit (or the whole commit group, under commit_delay) wait for the";
  note "standby flush ack, so one round-trip amortizes across the group:";
  note "larger delay -> fewer round-trips -> higher NOTPM on a lossy link,";
  note "at zero standby lag. degraded counts commits acked locally after";
  note "retry exhaustion.";
  { nothing with sections = [ rows "repl" results ] }

(* ------------------------------------------------------------------ *)
(* bench isolation: si vs ssi vs wsi across the engine registry        *)

(* Two legs per (engine, level) cell.

   Anomaly leg: a seeded pairwise write-skew loop (two concurrent
   transactions each read both counters, one writes one of them) with the
   online serializability checker attached. Under plain SI the committed
   history contains rw-antidependency cycles -- the checker's cycle count
   is the anomaly rate. Under ssi/wsi the cell must show ZERO cycles: the
   level converts each would-be anomaly into a serialization abort, which
   we report as the abort rate.

   Throughput leg: a short TPC-C run at the level, so the JSON records
   the overhead delta (NOTPM, aborts) of serializability tracking vs the
   same engine at plain SI. The TPC-C driver is a serial discrete-event
   loop, so the delta isolates tracking cost (SIREAD bookkeeping CPU),
   not abort churn. *)

let ablation_isolation c =
  section
    "Isolation: si vs ssi vs wsi -- anomaly rate, abort rate, NOTPM (4 engines)";
  let module V = Mvcc.Value in
  let module Db = Mvcc.Db in
  let anomaly_leg engine level =
    let _, (module E : Mvcc.Engine.S) = Mvcc.Engine.resolve_exn engine in
    let bus = Sias_obs.Bus.create () in
    let db =
      Db.create ~bus ~isolation:(Mvcc.Isolation.of_string_exn level) ()
    in
    let ck = Mvcc.Sichecker.attach bus in
    let eng = E.create db in
    let table = E.create_table eng ~name:"t" ~pk_col:0 () in
    let txn = E.begin_txn eng in
    E.insert eng txn table [| V.Int 1; V.Int 100_000 |] |> Result.get_ok;
    E.insert eng txn table [| V.Int 2; V.Int 100_000 |] |> Result.get_ok;
    E.commit eng txn |> Result.get_ok;
    let rng = Sias_util.Rng.create 17 in
    let rounds = if c.full then 400 else 120 in
    let committed = ref 0 and aborted = ref 0 in
    for _ = 1 to rounds do
      let t1 = E.begin_txn eng in
      let t2 = E.begin_txn eng in
      let attempt t =
        let v1 = V.int (Option.get (E.read eng t table ~pk:1)).(1) in
        let v2 = V.int (Option.get (E.read eng t table ~pk:2)).(1) in
        let amount = 1 + Sias_util.Rng.int rng 5 in
        let pk = 1 + Sias_util.Rng.int rng 2 in
        if v1 + v2 - amount >= 0 then
          ignore
            (E.update eng t table ~pk (fun r ->
                 let r = Array.copy r in
                 r.(1) <- V.Int ((if pk = 1 then v1 else v2) - amount);
                 r))
      in
      attempt t1;
      attempt t2;
      (match E.commit eng t1 with
      | Ok () -> incr committed
      | Error _ -> incr aborted);
      match E.commit eng t2 with
      | Ok () -> incr committed
      | Error _ -> incr aborted
    done;
    let mgr = Db.ssimgr db in
    let stat f = match mgr with None -> 0 | Some m -> f m in
    ( Mvcc.Sichecker.cycle_count ck,
      !committed,
      !aborted,
      stat Mvcc.Ssimgr.lineage_edges,
      stat Mvcc.Ssimgr.table_edges )
  in
  let tpcc_leg engine level =
    c.run
      {
        (default_setup ~engine ~warehouses:1) with
        isolation = level;
        duration_s = (if c.full then 30.0 else 10.0);
        buffer_pages = 1024;
        scale_div = 300;
        terminals_per_warehouse = 4;
        think_time_s = 0.2;
        gc_interval_s = Some 30.0;
        check_si = true;
      }
  in
  let tbl =
    T.create
      [
        "engine"; "level"; "anomalies"; "ser aborts"; "abort%"; "NOTPM";
        "dNOTPM%"; "lin-edges"; "tbl-edges"; "checker";
      ]
  in
  let gate_failures = ref 0 in
  let results =
    List.concat_map
      (fun engine ->
        let si_notpm = ref 0.0 in
        List.map
          (fun level ->
            let cycles, committed, aborted, lin, tab =
              anomaly_leg engine level
            in
            let o = tpcc_leg engine level in
            let notpm = o.result.W.notpm in
            if level = "si" then si_notpm := notpm;
            let delta =
              if level = "si" || !si_notpm <= 0.0 then 0.0
              else 100.0 *. (notpm -. !si_notpm) /. !si_notpm
            in
            let abort_pct =
              100.0 *. float_of_int aborted
              /. float_of_int (max 1 (committed + aborted))
            in
            (* acceptance gates: si must exhibit the anomaly, the
               serializable levels must not, and the TPC-C run must stay
               checker-clean at every level *)
            if level = "si" && cycles = 0 then incr gate_failures;
            if level <> "si" && cycles > 0 then incr gate_failures;
            let tpcc_cycles =
              match o.checker with
              | Some ck ->
                  if Mvcc.Sichecker.violation_count ck > 0 then
                    incr gate_failures;
                  if level <> "si" && Mvcc.Sichecker.cycle_count ck > 0 then
                    incr gate_failures;
                  Mvcc.Sichecker.cycle_count ck
              | None -> 0
            in
            T.add_row tbl
              [
                engine_name engine;
                level;
                string_of_int cycles;
                string_of_int aborted;
                T.fmt_float ~decimals:1 abort_pct;
                T.fmt_float ~decimals:0 notpm;
                T.fmt_float ~decimals:1 delta;
                string_of_int lin;
                string_of_int tab;
                (if tpcc_cycles = 0 then "OK"
                 else Printf.sprintf "%d cycles" tpcc_cycles);
              ];
            ( engine ^ "/" ^ level,
              [
                ("anomaly_cycles", float_of_int cycles);
                ("serialization_aborts", float_of_int aborted);
                ("abort_rate_pct", abort_pct);
                ("notpm", notpm);
                ("notpm_delta_vs_si_pct", delta);
                ("tpcc_aborted", float_of_int o.result.W.total_aborted);
                ("lineage_edges", float_of_int lin);
                ("table_edges", float_of_int tab);
              ] ))
          [ "si"; "ssi"; "wsi" ])
      [ "si"; "si-cv"; "sias"; "sias-v" ]
  in
  T.print tbl;
  note "anomalies = rw-antidependency cycles the online checker found in the";
  note "COMMITTED history of the write-skew loop: nonzero under plain si (the";
  note "write skew really commits), zero under ssi (pivot aborts) and wsi";
  note "(read-set certification) -- the serialization aborts are the price.";
  note "lin-edges vs tbl-edges: on sias/sias-v the rw edges ride the co-located";
  note "version lineage the visibility walk already traverses; the si engines";
  note "fall back to probing the SIREAD writes table. dNOTPM%% is the tracking";
  note "overhead vs the same engine at plain si (serial driver: pure CPU cost).";
  {
    sections = [ rows "isolation" results ];
    failures =
      gate !gate_failures
        "FAIL: %d isolation-bench gate violation(s) -- si must show anomalies on \
         write skew, ssi/wsi must show none, and TPC-C must stay checker-clean";
  }

(* ------------------------------------------------------------------ *)
(* bench index: paged B+Tree write amplification + buffer pressure     *)

(* The index write-amplification chapter. Two legs:

   Beyond-RAM leg: every engine on the paged, WAL-logged B+Tree at a
   warehouse count whose heap + index working set exceeds the buffer
   pool, with the page-flush classifier splitting device writes into
   index-page vs heap traffic. Index write amplification = MB of index
   pages flushed / MB of logical entry volume (insertions x 16 bytes).
   The append engines must not lose their headline: SIAS/SIAS-V total
   device writes stay <= SI on the same run, or the bench exits
   non-zero.

   Buffer-pressure leg: the same run across shrinking pools. As frames
   get scarce, index pages compete with heap pages for residency and
   the index share of the write traffic grows -- the figure the paged
   design pays for crash-recoverable indexes with. *)

let ablation_index c =
  section
    "Index: paged WAL-logged B+Tree -- write amplification, beyond-RAM TPC-C";
  let run ~engine ~index ~buffer_pages =
    c.run
      {
        (default_setup ~engine ~warehouses:20) with
        index;
        measure_index_io = true;
        buffer_pages;
        duration_s = (if c.full then 120.0 else 30.0);
        gc_interval_s = Some 30.0;
        keep_trace_records = false;
      }
  in
  let tbl =
    T.create
      [
        "engine"; "NOTPM"; "W MB"; "ix W MB"; "heap W MB"; "ix logical";
        "ix WA"; "splits"; "merges"; "height";
      ]
  in
  let si_write_mb = ref 0.0 and gate_failures = ref 0 in
  let engine_rows =
    List.map
      (fun engine ->
        let o = run ~engine ~index:"paged" ~buffer_pages:512 in
        let io = Option.get o.index_io in
        let wa = io.ix_flush_mb /. Float.max 1e-9 io.ix_logical_mb in
        if engine = "si" then si_write_mb := o.run_write_mb;
        (* the paper's headline must survive the paged index: the append
           engines cannot write more to the device than SI on this run *)
        if
          (engine = "sias" || engine = "sias-v")
          && o.run_write_mb > !si_write_mb +. 0.05
        then begin
          incr gate_failures;
          note "!! %s wrote %.1f MB > SI's %.1f MB with the paged index" engine
            o.run_write_mb !si_write_mb
        end;
        T.add_row tbl
          [
            engine_name engine;
            T.fmt_float ~decimals:0 o.result.W.notpm;
            T.fmt_float ~decimals:1 o.run_write_mb;
            T.fmt_float ~decimals:2 io.ix_flush_mb;
            T.fmt_float ~decimals:2 io.heap_flush_mb;
            T.fmt_float ~decimals:2 io.ix_logical_mb;
            T.fmt_float ~decimals:2 wa;
            string_of_int io.ix_splits;
            string_of_int io.ix_merges;
            string_of_int io.ix_height;
          ];
        ( engine ^ "/paged",
          [
            ("notpm", o.result.W.notpm);
            ("device_write_mb", o.run_write_mb);
            ("device_read_mb", o.run_read_mb);
            ("index_flush_mb", io.ix_flush_mb);
            ("index_flush_pages", float_of_int io.ix_flush_count);
            ("heap_flush_mb", io.heap_flush_mb);
            ("index_logical_mb", io.ix_logical_mb);
            ("index_write_amplification", wa);
            ("index_entries", float_of_int io.ix_entries);
            ("index_nodes", float_of_int io.ix_nodes);
            ("index_height", float_of_int io.ix_height);
            ("index_splits", float_of_int io.ix_splits);
            ("index_merges", float_of_int io.ix_merges);
          ] ))
      [ "si"; "si-cv"; "sias"; "sias-v" ]
  in
  T.print tbl;
  note "ix WA = index MB flushed / logical entry MB: slotted 8 KB pages";
  note "re-flushed across checkpoints amplify each 16-byte entry; the array";
  note "index writes nothing (rebuilt from the heap) but loses crash recovery.";
  (* array-vs-paged device-write delta on one append engine, same run *)
  let arr = run ~engine:"sias-v" ~index:"array" ~buffer_pages:512 in
  let arr_io = Option.get arr.index_io in
  note "";
  note "sias-v array index, same run: %.0f NOTPM, %.1f MB written (ix %.2f MB)"
    arr.result.W.notpm arr.run_write_mb arr_io.ix_flush_mb;
  let array_row =
    ( "sias-v/array",
      [
        ("notpm", arr.result.W.notpm);
        ("device_write_mb", arr.run_write_mb);
        ("index_flush_mb", arr_io.ix_flush_mb);
        ("heap_flush_mb", arr_io.heap_flush_mb);
      ] )
  in
  (* buffer-pressure sweep: index share of the writes vs pool size *)
  let buffers = if c.full then [ 256; 512; 1024; 2048; 4096 ] else [ 256; 1024; 4096 ] in
  let tbl =
    T.create [ "buffer pages"; "NOTPM"; "ix W MB"; "heap W MB"; "ix share %" ]
  in
  let pressure_rows =
    List.map
      (fun buffer_pages ->
        let o = run ~engine:"sias-v" ~index:"paged" ~buffer_pages in
        let io = Option.get o.index_io in
        let share =
          100.0 *. io.ix_flush_mb
          /. Float.max 1e-9 (io.ix_flush_mb +. io.heap_flush_mb)
        in
        T.add_row tbl
          [
            string_of_int buffer_pages;
            T.fmt_float ~decimals:0 o.result.W.notpm;
            T.fmt_float ~decimals:2 io.ix_flush_mb;
            T.fmt_float ~decimals:2 io.heap_flush_mb;
            T.fmt_float ~decimals:1 share;
          ];
        ( Printf.sprintf "sias-v/paged/buf%d" buffer_pages,
          [
            ("buffer_pages", float_of_int buffer_pages);
            ("notpm", o.result.W.notpm);
            ("index_flush_mb", io.ix_flush_mb);
            ("heap_flush_mb", io.heap_flush_mb);
            ("index_write_share_pct", share);
          ] ))
      buffers
  in
  T.print tbl;
  note "shrinking the pool forces index pages out through the same bgwriter/";
  note "checkpoint machinery as heap pages: the index share of device writes";
  note "is the residency price of a crash-recoverable index.";
  {
    sections =
      [ rows ~decimals:3 "index" (engine_rows @ (array_row :: pressure_rows)) ];
    failures =
      gate !gate_failures
        "FAIL: %d index-bench gate violation(s) -- SIAS/SIAS-V device writes \
         must stay <= SI with the paged index";
  }

(* ------------------------------------------------------------------ *)
(* bench micro: wall-clock ops/sec on the engine hot paths             *)

(* Unlike everything above, these measure host wall time, not simulated
   time: they exist to prove the hot-path data structures (hint bits,
   array CLOG, binary-search snapshots, fixed-slot vectors) got faster.
   Simulated results are byte-identical by construction; wall clock is
   where the win shows. --bench-out writes BENCH_5.json; --bench-baseline
   embeds a pre-change run's JSON and prints the speedups. *)

(* CLOCK_MONOTONIC, not [Unix.gettimeofday]: wall-of-day steps under NTP
   slew/step, so a timed window could be negative or wildly long and a
   "peak rate" could be fiction. The monotonic clock cannot go back. *)
let wall = Sias_util.Monotime.now

(* Best-of-trials peak rate: short timed windows, keep the fastest. The
   max filters out bursty interference from a shared host, which a single
   long window folds into the mean. [batch] returns its op count. *)
let time_ops c batch =
  ignore (batch ());
  let min_time = if c.full then 2.0 else 0.4 in
  let trials = if c.full then 12 else 6 in
  let window = Float.max 0.05 (min_time /. float_of_int trials) in
  let best = ref 0.0 in
  for _ = 1 to trials do
    let t0 = wall () in
    let ops = ref 0 in
    while wall () -. t0 < window do
      ops := !ops + batch ()
    done;
    let rate = float_of_int !ops /. Float.max 1e-9 (wall () -. t0) in
    if rate > !best then best := rate
  done;
  !best

let micro_engine c key (module E : Mvcc.Engine.S) =
  let module V = Mvcc.Value in
  let rng = Sias_util.Rng.create 99 in
  (* plain table: point reads, scans, updates *)
  let db = Mvcc.Db.create ~buffer_pages:4096 () in
  let eng = E.create db in
  let plain = E.create_table eng ~name:"plain" ~pk_col:0 () in
  let n_plain = 2_000 in
  let txn = E.begin_txn eng in
  for k = 1 to n_plain do
    E.insert eng txn plain [| V.Int k; V.Str (String.make 40 'p') |] |> Result.get_ok
  done;
  E.commit eng txn |> Result.get_ok;
  let reader = E.begin_txn eng in
  let point_read =
    time_ops c (fun () ->
        for _ = 1 to 256 do
          ignore (E.read eng reader plain ~pk:(1 + Sias_util.Rng.int rng n_plain))
        done;
        256)
  in
  let scan = time_ops c (fun () -> E.scan eng reader plain (fun _ -> ())) in
  E.commit eng reader |> Result.get_ok;
  let update =
    time_ops c (fun () ->
        let txn = E.begin_txn eng in
        let ok = ref 0 in
        for _ = 1 to 64 do
          match
            E.update eng txn plain ~pk:(1 + Sias_util.Rng.int rng n_plain) (fun r -> r)
          with
          | Ok () -> incr ok
          | Error _ -> ()
        done;
        E.commit eng txn |> Result.get_ok;
        !ok)
  in
  (* paged B+Tree probes: the same hot paths routed through the
     WAL-logged slotted-page index instead of the in-memory array tree
     (decode-on-access, buffer-pool pins, WAL-first inserts) *)
  let db = Mvcc.Db.create ~buffer_pages:4096 ~index:`Paged () in
  let eng_p = E.create db in
  let paged = E.create_table eng_p ~name:"paged" ~pk_col:0 () in
  let n_paged = 2_000 in
  let txn = E.begin_txn eng_p in
  for k = 1 to n_paged do
    E.insert eng_p txn paged [| V.Int k; V.Str (String.make 40 'q') |]
    |> Result.get_ok
  done;
  E.commit eng_p txn |> Result.get_ok;
  let reader = E.begin_txn eng_p in
  let btree_point =
    time_ops c (fun () ->
        for _ = 1 to 256 do
          ignore (E.read eng_p reader paged ~pk:(1 + Sias_util.Rng.int rng n_paged))
        done;
        256)
  in
  let btree_range =
    time_ops c (fun () ->
        let lo = 1 + Sias_util.Rng.int rng (n_paged - 128) in
        List.length (E.range_pk eng_p reader paged ~lo ~hi:(lo + 127)))
  in
  E.commit eng_p reader |> Result.get_ok;
  let next_key = ref (n_paged + 1) in
  let btree_insert =
    time_ops c (fun () ->
        let txn = E.begin_txn eng_p in
        for _ = 1 to 64 do
          E.insert eng_p txn paged [| V.Int !next_key; V.Str "i" |]
          |> Result.get_ok;
          incr next_key
        done;
        E.commit eng_p txn |> Result.get_ok;
        64)
  in
  (* visibility-heavy scan: deep version history read under snapshots
     with a large concurrent set -- the hot path the hint bits, array
     CLOG and binary-search snapshots attack *)
  let db = Mvcc.Db.create ~buffer_pages:8192 () in
  let eng = E.create db in
  let hot = E.create_table eng ~name:"hot" ~pk_col:0 () in
  let n_hot = 400 in
  let txn = E.begin_txn eng in
  for k = 1 to n_hot do
    E.insert eng txn hot [| V.Int k; V.Str (String.make 24 'h') |] |> Result.get_ok
  done;
  E.commit eng txn |> Result.get_ok;
  (* deep version history, half of it from aborted writers: a scan must
     reject every aborted and superseded version it meets *)
  for round = 1 to 24 do
    let txn = E.begin_txn eng in
    for k = 1 to n_hot do
      E.update eng txn hot ~pk:k (fun r -> r) |> Result.get_ok
    done;
    if round land 1 = 0 then E.abort eng txn else E.commit eng txn |> Result.get_ok
  done;
  (* a crowd of transactions stays open so every snapshot carries a big
     concurrent set, and the crowd keeps the CLOG busy *)
  let crowd = List.init 2_000 (fun _ -> E.begin_txn eng) in
  let reader = E.begin_txn eng in
  ignore (E.scan eng reader hot (fun _ -> ()));
  let vis_scan = time_ops c (fun () -> E.scan eng reader hot (fun _ -> ())) in
  E.commit eng reader |> Result.get_ok;
  List.iter (fun t -> E.abort eng t) crowd;
  (* the simulated headline number, for the record *)
  let t0 = wall () in
  let o =
    c.run
      {
        (default_setup ~engine:key ~warehouses:2) with
        duration_s = 10.0;
        buffer_pages = 1024;
        scale_div = 300;
        gc_interval_s = Some 30.0;
      }
  in
  let tpcc_wall = wall () -. t0 in
  [
    ("point_read_ops_per_s", point_read);
    ("scan_rows_per_s", scan);
    ("update_ops_per_s", update);
    ("btree_point_lookup_ops_per_s", btree_point);
    ("btree_range_scan_rows_per_s", btree_range);
    ("btree_insert_ops_per_s", btree_insert);
    ("visibility_scan_rows_per_s", vis_scan);
    ("notpm", o.result.W.notpm);
    ("tpcc_wall_s", tpcc_wall);
  ]

(* Engine-independent visibility check: the bare isVisible predicate
   against a populated transaction manager -- CLOG representation and
   snapshot membership with nothing else on the path. *)
let micro_core c =
  let module Txn = Sias_txn.Txn in
  let mgr = Txn.create_mgr () in
  let n = 20_000 in
  let xids = Array.init n (fun _ -> Txn.begin_txn mgr) in
  Array.iteri
    (fun i t -> if i land 3 = 3 then Txn.abort mgr t else Txn.commit mgr t)
    xids;
  let crowd = List.init 2_000 (fun _ -> Txn.begin_txn mgr) in
  let reader = Txn.begin_txn mgr in
  let rng = Sias_util.Rng.create 7 in
  let rate =
    time_ops c (fun () ->
        let hits = ref 0 in
        for _ = 1 to 1024 do
          if Txn.visible mgr reader.Txn.snapshot (1 + Sias_util.Rng.int rng n) then
            incr hits
        done;
        1024)
  in
  Txn.commit mgr reader;
  List.iter (fun t -> Txn.abort mgr t) crowd;
  note "isVisible predicate (20k xids, 2k concurrent): %.0f checks/s" rate;
  rate

(* Pull ["<engine>": {... "<field>": <num> ...}] out of a baseline JSON
   with plain string scanning -- no JSON dependency for one float. *)
let baseline_field ~json ~engine ~field =
  let find_from pos needle =
    let n = String.length needle and len = String.length json in
    let rec go i =
      if i + n > len then None
      else if String.sub json i n = needle then Some (i + n)
      else go (i + 1)
    in
    go pos
  in
  match find_from 0 (Printf.sprintf "%S: {" engine) with
  | None -> None
  | Some p -> (
      match find_from p (Printf.sprintf "%S: " field) with
      | None -> None
      | Some q ->
          let r = ref q in
          let len = String.length json in
          while !r < len && not (List.mem json.[!r] [ ','; '}'; '\n' ]) do
            incr r
          done;
          float_of_string_opt (String.trim (String.sub json q (!r - q))))

let micro c =
  section "Micro-benchmarks: wall-clock ops/sec on the engine hot paths";
  let core_rate = micro_core c in
  let results =
    List.map (fun (key, m) -> (key, micro_engine c key m)) (Mvcc.Engine.all ())
  in
  let tbl =
    T.create
      [ "engine"; "point read/s"; "scan rows/s"; "update/s"; "vis-scan rows/s"; "NOTPM" ]
  in
  List.iter
    (fun (key, fields) ->
      let get f = List.assoc f fields in
      T.add_row tbl
        [
          engine_name key;
          T.fmt_float ~decimals:0 (get "point_read_ops_per_s");
          T.fmt_float ~decimals:0 (get "scan_rows_per_s");
          T.fmt_float ~decimals:0 (get "update_ops_per_s");
          T.fmt_float ~decimals:0 (get "visibility_scan_rows_per_s");
          T.fmt_float ~decimals:0 (get "notpm");
        ])
    results;
  T.print tbl;
  let tbl =
    T.create
      [ "engine (paged B+Tree)"; "point lookup/s"; "range rows/s"; "insert/s" ]
  in
  List.iter
    (fun (key, fields) ->
      let get f = List.assoc f fields in
      T.add_row tbl
        [
          engine_name key;
          T.fmt_float ~decimals:0 (get "btree_point_lookup_ops_per_s");
          T.fmt_float ~decimals:0 (get "btree_range_scan_rows_per_s");
          T.fmt_float ~decimals:0 (get "btree_insert_ops_per_s");
        ])
    results;
  T.print tbl;
  (match c.baseline with
  | None -> ()
  | Some path ->
      let ic = open_in path in
      let json = really_input_string ic (in_channel_length ic) in
      close_in ic;
      note "\nspeedup vs baseline (%s):" path;
      (match baseline_field ~json ~engine:"core" ~field:"visibility_check_ops_per_s" with
      | Some base when base > 0.0 ->
          note "  %-12s isVisible predicate   %.2fx (%.0f -> %.0f checks/s)" "core"
            (core_rate /. base) base core_rate
      | _ -> ());
      List.iter
        (fun (key, fields) ->
          match baseline_field ~json ~engine:key ~field:"visibility_scan_rows_per_s" with
          | Some base when base > 0.0 ->
              let now = List.assoc "visibility_scan_rows_per_s" fields in
              note "  %-12s visibility-heavy scan %.2fx (%.0f -> %.0f rows/s)"
                (engine_name key) (now /. base) base now
          | _ -> note "  %-12s (no baseline figure)" (engine_name key))
        results);
  {
    nothing with
    sections =
      [
        rows "engines" results;
        ("core", 1, fields [ ("visibility_check_ops_per_s", core_rate) ]);
      ];
  }

(* BENCH JSON sections in the order every record has carried them;
   "engines" is always present, empty unless micro ran. *)
let section_order = [ "engines"; "core"; "repl"; "isolation"; "index"; "multicore" ]

(* The BENCH record: mode, the run's total wall time, every section the
   chosen experiments produced, and the embedded baseline if one was
   given. *)
let write_bench_json ~full ~baseline ~wall_s sections path =
  let buf = Buffer.create 4096 in
  let rec emit ~decimals indent = function
    | Num v -> Buffer.add_string buf (Printf.sprintf "%.*f" decimals v)
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (Printf.sprintf "\n%s  %S: " indent k);
            emit ~decimals (indent ^ "  ") v)
          kvs;
        Buffer.add_string buf ("\n" ^ indent ^ "}")
  in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"bench\": \"sias micro\",\n  \"mode\": %S,\n  \"wall_time_s\": %.2f"
       (if full then "full" else "quick")
       wall_s);
  List.iter
    (fun name ->
      let found =
        match List.filter (fun (n, _, _) -> n = name) sections with
        | [] when name = "engines" -> [ rows name [] ]
        | found -> found
      in
      List.iter
        (fun (_, decimals, body) ->
          Buffer.add_string buf (Printf.sprintf ",\n  %S: " name);
          emit ~decimals "  " body)
        found)
    section_order;
  (match baseline with
  | Some bpath when Sys.file_exists bpath ->
      let ic = open_in bpath in
      let json = String.trim (really_input_string ic (in_channel_length ic)) in
      close_in ic;
      if String.length json > 0 && json.[0] = '{' then begin
        Buffer.add_string buf ",\n  \"baseline\": ";
        Buffer.add_string buf json
      end
  | _ -> ());
  Buffer.add_string buf "\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "bench results -> %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the core data structures               *)

let micro_structs _ =
  section "Micro-benchmarks (Bechamel): core data-structure operations";
  let open Bechamel in
  let vidmap = Vidmap.create () in
  for i = 0 to 99_999 do
    let v = Vidmap.alloc_vid vidmap in
    Vidmap.set vidmap ~vid:v (Sias_storage.Tid.make ~block:i ~slot:0)
  done;
  let rng = Sias_util.Rng.create 7 in
  let test_vidmap_get =
    Test.make ~name:"vidmap.get (C_R = O(1)+CPU)"
      (Staged.stage (fun () ->
           ignore (Vidmap.get vidmap ~vid:(Sias_util.Rng.int rng 100_000))))
  in
  let test_vidmap_set =
    Test.make ~name:"vidmap.set (C_W = 2*C_R)"
      (Staged.stage (fun () ->
           Vidmap.set vidmap
             ~vid:(Sias_util.Rng.int rng 100_000)
             (Sias_storage.Tid.make ~block:1 ~slot:1)))
  in
  let mgr = Sias_txn.Txn.create_mgr () in
  let txns = Array.init 64 (fun _ -> Sias_txn.Txn.begin_txn mgr) in
  Array.iter (fun t -> Sias_txn.Txn.commit mgr t) txns;
  let reader = Sias_txn.Txn.begin_txn mgr in
  let test_visibility =
    Test.make ~name:"isVisible (Algorithm 1 predicate)"
      (Staged.stage (fun () ->
           ignore
             (Sias_txn.Txn.visible mgr reader.Sias_txn.Txn.snapshot
                (1 + Sias_util.Rng.int rng 64))))
  in
  let clock = Sias_util.Simclock.create () in
  let device = Flashsim.Device.ssd_x25e ~blocks:4096 () in
  let pool = Sias_storage.Bufpool.create ~device ~clock ~capacity_pages:4096 () in
  let btree = Sias_index.Btree.create pool ~rel:0 in
  for k = 1 to 100_000 do
    Sias_index.Btree.insert btree ~key:k ~payload:k
  done;
  let test_btree =
    Test.make ~name:"btree.lookup (100k keys)"
      (Staged.stage (fun () ->
           ignore (Sias_index.Btree.lookup btree ~key:(1 + Sias_util.Rng.int rng 100_000))))
  in
  let page = Sias_storage.Page.create ~size:8192 in
  let item = Bytes.make 100 'x' in
  let test_page =
    Test.make ~name:"page append+delete (slotted page)"
      (Staged.stage (fun () ->
           match Sias_storage.Page.insert page item with
           | Some slot -> Sias_storage.Page.delete page slot
           | None -> ()))
  in
  let tests =
    Test.make_grouped ~name:"sias"
      [ test_vidmap_get; test_vidmap_set; test_visibility; test_btree; test_page ]
  in
  let raw =
    Benchmark.all
      (Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ())
      Toolkit.Instance.[ monotonic_clock ]
      tests
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  List.iter
    (fun (name, o) ->
      match Analyze.OLS.estimates o with
      | Some [ est ] -> note "  %-50s %10.1f ns/op" name est
      | _ -> note "  %-50s (no estimate)" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* multicore: shared-nothing TPC-C sharded across OCaml 5 domains.
   Weak scaling, TPC-C's own mode: warehouses are per domain, so N
   domains simulate an N-times larger system and aggregate NOTPM should
   track N. Wall NOTPM shows the parallel speedup on real cores (on a
   single-core host the wall figure stays flat — that is the machine,
   not the sharding). Every shard runs with the SI checker attached;
   any violation fails the whole bench run. *)

let multicore_bench c =
  section "Multicore: sharded TPC-C on OCaml 5 domains (weak scaling)";
  let module MC = Tpcc.Tpcc_multicore in
  let engines = if c.full then [ "si"; "si-cv"; "sias"; "sias-v" ] else [ "sias-v" ] in
  let domain_counts = if c.full then [ 1; 2; 4; 8 ] else [ 1; 2; 4 ] in
  note "host: %d recommended domains" (Domain.recommended_domain_count ());
  let violations = ref 0 in
  let results =
    List.concat_map
      (fun engine ->
        let base_notpm = ref 0.0 in
        List.map
          (fun domains ->
            let cfg = MC.default_config ~engine ~domains ~warehouses_per_domain:1 in
            let cfg =
              {
                cfg with
                MC.base =
                  { cfg.MC.base with W.duration_s = (if c.full then 300.0 else 60.0) };
                bufpool_shards = (if domains > 1 then 4 else 1);
              }
            in
            let r = MC.run cfg in
            if domains = 1 then base_notpm := r.MC.agg_notpm;
            let speedup =
              if !base_notpm > 0.0 then r.MC.agg_notpm /. !base_notpm else 0.0
            in
            violations := !violations + r.MC.violations;
            note
              "  %-7s domains=%d  agg %7.0f NOTPM (%.2fx vs 1 domain)  wall %6.2fs \
               %7.0f NOTPM-wall  fsyncs %d/%d commits (saved %d)  violations %d"
              engine domains r.MC.agg_notpm speedup r.MC.wall_s r.MC.wall_notpm
              r.MC.slots.Sias_wal.Walslots.commit_fsyncs
              r.MC.slots.Sias_wal.Walslots.commits
              r.MC.slots.Sias_wal.Walslots.fsyncs_saved r.MC.violations;
            ( Printf.sprintf "%s/d%d" engine domains,
              [
                ("domains", float_of_int domains);
                ("warehouses_per_domain", float_of_int cfg.MC.base.W.warehouses);
                ("agg_notpm", r.MC.agg_notpm);
                ("notpm_scaling_vs_1domain", speedup);
                ("wall_s", r.MC.wall_s);
                ("wall_notpm", r.MC.wall_notpm);
                ("total_committed", float_of_int r.MC.total_committed);
                ("new_orders", float_of_int r.MC.total_new_orders);
                ("commit_fsyncs", float_of_int r.MC.slots.Sias_wal.Walslots.commit_fsyncs);
                ("fsyncs_saved", float_of_int r.MC.slots.Sias_wal.Walslots.fsyncs_saved);
                ("violations", float_of_int r.MC.violations);
              ] ))
          domain_counts)
      engines
  in
  if !violations > 0 then
    note "!! SI checker reported %d violations -- bench will exit non-zero" !violations;
  {
    sections = [ rows "multicore" results ];
    failures =
      gate !violations "FAIL: SI checker reported %d violations during the multicore bench";
  }

let experiments =
  let plain f c =
    f c;
    nothing
  in
  [
    ("table1", plain table1);
    ("table2", plain table2);
    ("figure3", plain figure3);
    ("figure4", plain figure4);
    ("figure5", plain figure5);
    ("figure6", plain figure6);
    ("scan", plain ablation_scan);
    ("vectors", plain ablation_vectors);
    ("gc", plain ablation_gc);
    ("noftl", plain ablation_noftl);
    ("vidmap", plain ablation_vidmap);
    ("endurance", plain ablation_endurance);
    ("contention", plain ablation_contention);
    ("groupcommit", plain ablation_groupcommit);
    ("repl", ablation_repl);
    ("isolation", ablation_isolation);
    ("index", ablation_index);
    ("micro", micro);
    ("structs", plain micro_structs);
    ("multicore", multicore_bench);
  ]

let main names full bench_out baseline (o : Cli.overlay) =
  Option.iter
    (fun seed ->
      Printf.printf "fault injection: seed %d, profile %s\n%!" seed
        (Flashsim.Faultdev.profile_name o.fault_profile))
    o.fault_seed;
  if (not o.synchronous_commit) || o.commit_delay_s > 0.0 then
    Printf.printf "commit pipeline: synchronous_commit=%s commit_delay=%gs\n%!"
      (if o.synchronous_commit then "on" else "off")
      o.commit_delay_s;
  (* each run overwrites the artifacts; the surviving files are the last
     experiment's run, which is what a smoke invocation of a single
     experiment wants *)
  Option.iter (fun p -> Printf.printf "metrics -> %s\n%!" p) o.metrics_out;
  Option.iter (fun p -> Printf.printf "trace -> %s\n%!" p) o.trace_out;
  let ctx = { full; run = (fun s -> run_tpcc (Cli.fill_in o s)); baseline } in
  let chosen =
    List.concat_map
      (fun n -> if n = "all" then experiments else [ (n, List.assoc n experiments) ])
      (if names = [] then [ "all" ] else names)
  in
  let t0 = Sias_util.Monotime.now () in
  let outcomes = List.map (fun (_, run) -> run ctx) chosen in
  let wall_s = Sias_util.Monotime.elapsed_since t0 in
  Printf.printf "\n(total wall time %.1f s%s)\n" wall_s
    (if full then ", full mode" else ", quick mode; pass --full for paper-scale parameters");
  Option.iter
    (write_bench_json ~full ~baseline ~wall_s
       (List.concat_map (fun o -> o.sections) outcomes))
    bench_out;
  match List.concat_map (fun o -> o.failures) outcomes with
  | [] -> ()
  | failures ->
      List.iter print_endline failures;
      exit 1

let () =
  let open Cmdliner in
  let names =
    Arg.(
      value
      & pos_all (enum (List.map (fun n -> (n, n)) ("all" :: List.map fst experiments))) []
      & info [] ~docv:"EXPERIMENT" ~doc:"Experiments to run, in order; all (the default) runs every one.")
  in
  let path name doc = Arg.(value & opt (some string) None & info [ name ] ~docv:"PATH" ~doc) in
  Cli.eval
    (Cmd.v
       (Cmd.info "bench" ~doc:"Regenerate the paper's tables and figures and the ablation benches.")
       Term.(
         const main $ names
         $ Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale parameters instead of quick mode.")
         $ path "bench-out" "Write the machine-readable BENCH record to $(docv)."
         $ path "bench-baseline"
             "Embed the BENCH record at $(docv) and print micro speedups against it."
         $ Cli.overlay))
