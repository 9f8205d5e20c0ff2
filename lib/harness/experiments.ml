module Device = Flashsim.Device
module Blocktrace = Flashsim.Blocktrace
module Bufpool = Sias_storage.Bufpool
module Bgwriter = Sias_storage.Bgwriter
module Db = Mvcc.Db
module Commitpipe = Sias_wal.Commitpipe
module W = Tpcc.Tpcc_workload
module S = Tpcc.Tpcc_schema
module Bus = Sias_obs.Bus
module Metrics = Sias_obs.Metrics
module Tracer = Sias_obs.Tracer
module Repl = Sias_repl.Repl
module Link = Sias_repl.Link

let engine_name = Mvcc.Engine.display_name

type device_kind = Ssd_single | Ssd_sized of int | Ssd_raid of int | Hdd_single

type flush = T1 | T2

type setup = {
  engine : string;
  isolation : string;
  device : device_kind;
  flush : flush;
  buffer_pages : int;
  warehouses : int;
  scale_div : int;
  duration_s : float;
  terminals_per_warehouse : int;
  think_time_s : float;
  seed : int;
  gc_interval_s : float option;
  checkpoint_interval_s : float;
  vidmap_paged : bool;
  keep_trace_records : bool;
  synchronous_commit : bool;
  commit_delay_s : float;
  wal_device : device_kind option;
  fault_seed : int option;
  fault_profile : Flashsim.Faultdev.profile;
  contention : Sias_txn.Contention.settings;
  retries : int;
  check_si : bool;
  metrics_out : string option;
  trace_out : string option;
  stats_interval_s : float option;
  collect_metrics : bool;
  repl_mode : Repl.mode option;
  repl_link : Link.profile;
  repl_seed : int;
  index : string;  (** "array" (default, golden) or "paged" *)
  measure_index_io : bool;
      (** subscribe a page-flush classifier that splits device writes into
          index-page vs heap-page traffic (off by default: subscribing
          activates the bus, which golden runs must not do) *)
}

let default_setup ~engine ~warehouses =
  {
    engine;
    isolation = "si";
    device = Ssd_single;
    flush = T2;
    buffer_pages = 2048;
    warehouses;
    scale_div = 100;
    duration_s = 60.0;
    terminals_per_warehouse = 1;
    think_time_s = 1.0;
    seed = 42;
    gc_interval_s = None;
    checkpoint_interval_s = 30.0;
    vidmap_paged = false;
    keep_trace_records = false;
    synchronous_commit = true;
    commit_delay_s = 0.0;
    wal_device = None;
    fault_seed = None;
    fault_profile = Flashsim.Faultdev.light;
    contention = Sias_txn.Contention.default_settings;
    retries = 0;
    check_si = false;
    metrics_out = None;
    trace_out = None;
    stats_interval_s = None;
    collect_metrics = false;
    repl_mode = None;
    repl_link = Link.clean;
    repl_seed = 7;
    index = "array";
    measure_index_io = false;
  }

(* Index-vs-heap split of the measured run's page-flush traffic, plus
   the index's own logical volume — together the index write
   amplification: physical index MB flushed per logical MB of entries
   ever inserted (16 bytes each). *)
type index_io = {
  ix_flush_mb : float;
  ix_flush_count : int;
  heap_flush_mb : float;  (** every non-index page flush: heap + VID_map *)
  heap_flush_count : int;
  ix_logical_mb : float;
  ix_entries : int;
  ix_nodes : int;
  ix_height : int;
  ix_splits : int;
  ix_merges : int;
}

type output = {
  setup : setup;
  result : W.result;
  load_write_mb : float;
  run_write_mb : float;
  run_read_mb : float;
  run_write_count : int;
  run_read_count : int;
  space_mb : float;
  avg_fill : float;
  device_info : (string * float) list;
  buf_stats : Bufpool.stats;
  trace : Blocktrace.t;
  contention_stats : Sias_txn.Contention.stats;
  commit_stats : Commitpipe.stats;
  wal_write_mb : float;
  checker : Mvcc.Sichecker.t option;
  metrics : Metrics.t option;
  repl_stats : Repl.stats option;
  index_io : index_io option;
}

let make_device = function
  | Ssd_single -> Device.ssd_x25e ~name:"data-ssd" ~blocks:8192 ()
  | Ssd_sized blocks -> Device.ssd_x25e ~name:"data-ssd" ~blocks ()
  | Ssd_raid n -> Device.ssd_raid ~blocks_per_ssd:8192 n
  | Hdd_single -> Device.hdd_7200 ~name:"data-hdd" ()

let make_wal_device = function
  | Ssd_single -> Device.ssd_x25e ~name:"wal-ssd" ~blocks:8192 ()
  | Ssd_sized blocks -> Device.ssd_x25e ~name:"wal-ssd" ~blocks ()
  | Ssd_raid n -> Device.ssd_raid ~blocks_per_ssd:8192 n
  | Hdd_single -> Device.hdd_7200 ~name:"wal-hdd" ()

let flush_policy = function
  | T1 -> Bgwriter.T1_bgwriter { interval = 0.2; max_pages = 100 }
  | T2 -> Bgwriter.T2_checkpoint_only

let workload_config setup =
  {
    (W.default_config ~warehouses:setup.warehouses) with
    W.scale = S.scaled ~div:setup.scale_div ();
    duration_s = setup.duration_s;
    terminals_per_warehouse = setup.terminals_per_warehouse;
    think_time_s = setup.think_time_s;
    seed = setup.seed;
    gc_interval_s = setup.gc_interval_s;
    retry =
      (if setup.retries > 0 then
         Some (Sias_txn.Contention.retry_config ~max_attempts:(setup.retries + 1) ())
       else None);
  }

(* For a RAID, the logical trace is at the RAID device; member devices
   carry their own physical traces. Measurement uses the top device. *)

(* Periodic progress line on stderr, driven by simulated time: every
   event is a chance to notice the sim clock crossed the next tick. *)
let attach_stats_ticker bus ~clock ~metrics ~interval =
  let next = ref interval in
  let metric name labels =
    match Metrics.value metrics ~labels name with Some v -> v | None -> 0.0
  in
  Bus.subscribe bus (fun _ ->
      let now = Sias_util.Simclock.now clock in
      if now >= !next then begin
        while now >= !next do
          next := !next +. interval
        done;
        Printf.eprintf
          "[sim %8.2fs] commits=%.0f aborts=%.0f retries=%.0f wal-MB=%.2f\n%!"
          now
          (metric "sias_txn_total" [ ("event", "commit") ])
          (metric "sias_txn_total" [ ("event", "abort") ])
          (metric "sias_txn_total" [ ("event", "retry") ])
          (metric "sias_wal_bytes_total" [] /. (1024.0 *. 1024.0))
      end)

let write_text_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let run_tpcc setup =
  let _, (module E : Mvcc.Engine.S) = Mvcc.Engine.resolve_exn setup.engine in
  let module WE = W.Make (E) in
  let faults =
    Option.map
      (fun seed -> Flashsim.Faultdev.create ~profile:setup.fault_profile ~seed ())
      setup.fault_seed
  in
  let device =
    let d = make_device setup.device in
    match faults with None -> d | Some f -> Flashsim.Faultdev.wrap f d
  in
  Blocktrace.set_keep_records (Device.trace device) setup.keep_trace_records;
  let wal_device = Option.map make_wal_device setup.wal_device in
  let commit_mode =
    if not setup.synchronous_commit then
      (* PostgreSQL synchronous_commit=off: ack at append, WAL-writer
         trickle (wal_writer_delay-style) makes the loss window bounded *)
      Commitpipe.Async { interval = 0.1; max_bytes = 64 * 1024 }
    else if setup.commit_delay_s > 0.0 then
      Commitpipe.Group { delay = setup.commit_delay_s }
    else Commitpipe.Sync
  in
  let bus = Bus.create () in
  let index_kind =
    Result.fold ~ok:Fun.id ~error:invalid_arg (Mvcc.Index.kind_of_string setup.index)
  in
  let db =
    Db.create ~bus ~device ?wal_device ?faults ~buffer_pages:setup.buffer_pages
      ~flush_policy:(flush_policy setup.flush)
      ~checkpoint_interval:setup.checkpoint_interval_s
      ?append_seal_interval:(match setup.flush with T1 -> Some 0.2 | T2 -> None)
      ~os_cache_interval:30.0 ~os_cache_pages:(setup.buffer_pages / 4)
      ~vidmap_paged:setup.vidmap_paged ~contention:setup.contention
      ~commit_mode
      ~isolation:(Mvcc.Isolation.of_string_exn setup.isolation)
      ~index:index_kind ()
  in
  let checker = if setup.check_si then Some (Mvcc.Sichecker.attach bus) else None in
  let want_metrics =
    setup.collect_metrics || setup.metrics_out <> None
    || setup.stats_interval_s <> None
  in
  let metrics =
    if want_metrics then begin
      let m = Metrics.create () in
      Sias_obs.Recorder.attach m bus;
      Some m
    end
    else None
  in
  (match (setup.stats_interval_s, metrics) with
  | Some interval, Some m ->
      attach_stats_ticker bus ~clock:db.Db.clock ~metrics:m ~interval
  | _ -> ());
  let eng = E.create db in
  let tables = WE.create_tables eng in
  (* Replication attaches before the load so the retention hold pins the
     log from LSN 1 and the standby can replay the run from scratch. The
     standby mirrors the primary's engine-relevant configuration (same
     table-creation order, so relation ids agree) but keeps its WAL in
     memory: installs are verbatim copies and flush instantly. *)
  let repl =
    match setup.repl_mode with
    | None -> None
    | Some mode ->
        let sdb =
          Db.create ~buffer_pages:setup.buffer_pages
            ?append_seal_interval:
              (match setup.flush with T1 -> Some 0.2 | T2 -> None)
            ~vidmap_paged:setup.vidmap_paged ~index:index_kind ()
        in
        let seng = E.create sdb in
        let (_ : WE.tables) = WE.create_tables seng in
        let link =
          Link.create ~profile:setup.repl_link ~seed:setup.repl_seed ()
        in
        let r = Repl.attach ~primary:db ~standby:sdb ~link ~mode () in
        Repl.set_refresh r (fun () ->
            Bufpool.drop_cache sdb.Db.pool;
            E.recover seng);
        Some r
  in
  let cfg = workload_config setup in
  WE.load eng tables cfg;
  (* settle: persist the loaded state once, as a freshly started server
     would, then measure only the benchmark run *)
  Commitpipe.finalize db.Db.commitpipe;
  Bufpool.flush_all db.Db.pool ~sync:false;
  Bufpool.flush_os_cache db.Db.pool;
  let trace = Device.trace device in
  let load_write_mb = Blocktrace.write_mb trace in
  Blocktrace.reset trace;
  (* commit-pipeline stats and the WAL device's trace likewise cover only
     the measured run *)
  Commitpipe.reset_stats db.Db.commitpipe;
  Option.iter (fun d -> Blocktrace.reset (Device.trace d)) wal_device;
  (* metrics and trace cover exactly what the block trace covers: the
     measured run, not the bulk load *)
  Option.iter Metrics.reset metrics;
  let tracer =
    Option.map (fun _ -> Tracer.attach ~clock:db.Db.clock bus) setup.trace_out
  in
  (* the classifier subscribes only on request: it covers exactly the
     measured run (the trace was just reset), and golden runs must not
     activate the bus *)
  let index_flush_cells =
    if setup.measure_index_io then begin
      let rels =
        List.sort_uniq compare
          (List.concat_map
             (fun (_, l) -> List.map (fun s -> s.Mvcc.Index.s_rel) l)
             (E.index_summary eng))
      in
      let page_mb =
        float_of_int (Bufpool.page_size db.Db.pool) /. (1024.0 *. 1024.0)
      in
      let ix_mb = ref 0.0 and ix_n = ref 0 and hp_mb = ref 0.0 and hp_n = ref 0 in
      Bus.subscribe bus (function
        | Bus.Page_flush { rel; _ } ->
            if List.mem rel rels then begin
              ix_mb := !ix_mb +. page_mb;
              incr ix_n
            end
            else begin
              hp_mb := !hp_mb +. page_mb;
              incr hp_n
            end
        | _ -> ());
      Some (ix_mb, ix_n, hp_mb, hp_n)
    end
    else None
  in
  let result = WE.run eng tables cfg in
  Bufpool.flush_os_cache db.Db.pool;
  let tables_list =
    [
      tables.WE.warehouse;
      tables.WE.district;
      tables.WE.customer;
      tables.WE.history;
      tables.WE.new_order;
      tables.WE.orders;
      tables.WE.order_line;
      tables.WE.item;
      tables.WE.stock;
    ]
  in
  let stats = List.map (E.table_stats eng) tables_list in
  let heap_pages =
    List.fold_left (fun acc s -> acc + s.Mvcc.Engine.heap_blocks) 0 stats
  in
  let avg_fill =
    let fills = List.filter_map
      (fun s -> if s.Mvcc.Engine.heap_blocks > 0 then Some s.Mvcc.Engine.avg_fill else None)
      stats
    in
    if fills = [] then 0.0
    else List.fold_left ( +. ) 0.0 fills /. float_of_int (List.length fills)
  in
  (* one last drain so the sender ships the final flushed tail and the
     reported lag reflects link latency, not an unticked send cursor *)
  Option.iter (fun _ -> Db.tick db) repl;
  (* artifacts are written after the table_stats scans so their device
     counters cover exactly the window the block-trace counters report;
     reliability counters (device-model info including dropped trace
     records and fault/retry/repair tallies, buffer-pool repair stats)
     are exported into the same registry first so Prometheus/JSON
     artifacts carry them *)
  (match metrics with
  | Some m ->
      Sias_obs.Recorder.export_reliability m ~scope:"data-device"
        (Device.info device);
      Option.iter
        (fun d ->
          Sias_obs.Recorder.export_reliability m ~scope:"wal-device"
            (Device.info d))
        wal_device;
      let bs = Bufpool.stats db.Db.pool in
      Sias_obs.Recorder.export_reliability m ~scope:"bufpool"
        [
          ("read_retries", float_of_int bs.Bufpool.read_retries);
          ("checksum_failures", float_of_int bs.Bufpool.checksum_failures);
          ("pages_repaired", float_of_int bs.Bufpool.pages_repaired);
          ("torn_pages", float_of_int bs.Bufpool.torn_pages);
        ]
  | None -> ());
  (* the standby's install counter lives on the standby's (unobserved)
     bus; fold the end-of-run replication stats into the same registry so
     the artifact lets lag reconcile against records shipped *)
  (match (repl, metrics) with
  | Some r, Some m ->
      let rs = Repl.stats r in
      Sias_obs.Recorder.export_reliability m ~scope:"repl"
        [
          ("installed_records", float_of_int rs.Repl.installed_records);
          ("installed_lsn", float_of_int rs.Repl.installed_lsn);
          ("lag_records", float_of_int rs.Repl.lag_records);
          ("retransmits", float_of_int rs.Repl.retransmits);
          ("degraded_acks", float_of_int rs.Repl.degraded_acks);
        ]
  | _ -> ());
  (match (setup.metrics_out, metrics) with
  | Some path, Some m -> write_text_file path (Metrics.to_prometheus m)
  | _ -> ());
  (match (setup.trace_out, tracer) with
  | Some path, Some tr -> Tracer.write_file tr path
  | _ -> ());
  {
    setup;
    result;
    load_write_mb;
    run_write_mb = Blocktrace.write_mb trace;
    run_read_mb = Blocktrace.read_mb trace;
    run_write_count = Blocktrace.write_count trace;
    run_read_count = Blocktrace.read_count trace;
    space_mb = float_of_int (heap_pages * 8192) /. (1024.0 *. 1024.0);
    avg_fill;
    device_info = Device.info device;
    buf_stats = Bufpool.stats db.Db.pool;
    trace;
    contention_stats = Sias_txn.Contention.stats db.Db.contention;
    commit_stats = Commitpipe.stats db.Db.commitpipe;
    wal_write_mb =
      (match wal_device with
      | Some d -> Blocktrace.write_mb (Device.trace d)
      | None -> 0.0);
    checker;
    metrics;
    repl_stats = Option.map Repl.stats repl;
    index_io =
      (match index_flush_cells with
      | None -> None
      | Some (ix_mb, ix_n, hp_mb, hp_n) ->
          let summaries = List.concat_map snd (E.index_summary eng) in
          let sum f = List.fold_left (fun acc s -> acc + f s) 0 summaries in
          Some
            {
              ix_flush_mb = !ix_mb;
              ix_flush_count = !ix_n;
              heap_flush_mb = !hp_mb;
              heap_flush_count = !hp_n;
              ix_logical_mb =
                float_of_int (sum (fun s -> s.Mvcc.Index.s_inserts) * 16)
                /. (1024.0 *. 1024.0);
              ix_entries = sum (fun s -> s.Mvcc.Index.s_entries);
              ix_nodes = sum (fun s -> s.Mvcc.Index.s_nodes);
              ix_height =
                List.fold_left
                  (fun acc s -> Stdlib.max acc s.Mvcc.Index.s_height)
                  0 summaries;
              ix_splits = sum (fun s -> s.Mvcc.Index.s_splits);
              ix_merges = sum (fun s -> s.Mvcc.Index.s_merges);
            });
  }

let pp_output_summary fmt o =
  Format.fprintf fmt
    "%s/%s: %d WH, %.0fs -> %.0f NOTPM; writes %.1f MB (%d), reads %.1f MB (%d); space %.1f MB (fill %.0f%%)"
    (engine_name o.setup.engine)
    (match o.setup.flush with T1 -> "t1" | T2 -> "t2")
    o.setup.warehouses o.result.W.elapsed_s o.result.W.notpm o.run_write_mb
    o.run_write_count o.run_read_mb o.run_read_count o.space_mb (100.0 *. o.avg_fill)
