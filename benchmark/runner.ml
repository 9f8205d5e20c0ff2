(* One round = one fixed-work workload execution in a fresh database:
   set up (Db creation, tables, load, settle) exactly as
   Experiments.run_tpcc does, then the measured phase — Tpcc_workload's
   [run] — then read the simulated outputs. A measurement is a fixed
   number of rounds (see [measure]). *)

module X = Harness.Experiments
module W = Tpcc.Tpcc_workload
module S = Tpcc.Tpcc_schema
module Col = Tpcc.Tpcc_schema.Col
module Db = Mvcc.Db
module Value = Mvcc.Value
module Device = Flashsim.Device
module Blocktrace = Flashsim.Blocktrace
module Bufpool = Sias_storage.Bufpool
module Bgwriter = Sias_storage.Bgwriter
module Commitpipe = Sias_wal.Commitpipe
module Wal = Sias_wal.Wal
module Bus = Sias_obs.Bus

(* The simulated outputs: behaviour, not performance. Every round of a
   measurement must reproduce them exactly, traced or not. *)
type sim = {
  committed : int;
  aborted : int;
  failed : int;  (** [Failed] outcomes: data that should exist did not *)
  notpm : float;
  reads : int;  (** data-device read requests in the measured run *)
  writes : int;
  violations : int;  (** SI-checker violations; 0 without the checker *)
}

let sim_line name s =
  Printf.sprintf
    "%s committed=%d aborted=%d failed=%d notpm=%.4f reads=%d writes=%d violations=%d"
    name s.committed s.aborted s.failed s.notpm s.reads s.writes s.violations

(* Bus event counts of a traced measured phase. *)
type events = {
  mutable total : int;
  mutable hint_hits : int;
  mutable hint_sets : int;
  mutable bgwriter_pages : int;
  mutable index_deltas : int;
}

type round = {
  seed : int;
  traced : bool;
  setup_s : float;
  run_s : float;  (** host seconds of the measured phase *)
  sim : sim;
  consistent : bool;  (** TPC-C consistency conditions held afterwards *)
  attempts : int;
  latency_ns : int array;
  kinds : int array;  (** per sample, index into [W.all_kinds]; traced only *)
  deltas : (string * float) list;  (** layer counters over the measured phase *)
  gauges : (string * float) list;  (** layer state at its end *)
  events : events option;  (** traced only *)
  spans : Probe.span list;  (** traced only *)
}

(* The subset of setups this runner rebuilds; the rest of run_tpcc's
   options (faults, WAL device, replication, commit modes, artifacts)
   no workload uses. *)
let check_supported (s : X.setup) =
  if
    s.X.fault_seed <> None || s.wal_device <> None || s.repl_mode <> None
    || (not s.synchronous_commit) || s.commit_delay_s > 0.0 || s.retries > 0
    || s.metrics_out <> None || s.trace_out <> None || s.stats_interval_s <> None
    || s.collect_metrics || s.measure_index_io || s.keep_trace_records
  then invalid_arg "benchmark: the setup uses an option the bench runner does not build"

let data_device (s : X.setup) =
  match s.X.device with
  | X.Ssd_single -> Device.ssd_x25e ~name:"data-ssd" ~blocks:8192 ()
  | X.Ssd_sized blocks -> Device.ssd_x25e ~name:"data-ssd" ~blocks ()
  | X.Ssd_raid _ | X.Hdd_single -> invalid_arg "benchmark: single-SSD setups only"

let config (w : Workloads.t) (s : X.setup) =
  {
    (W.default_config ~warehouses:s.X.warehouses) with
    W.scale = S.scaled ~div:s.scale_div ();
    duration_s = s.duration_s;
    terminals_per_warehouse = s.terminals_per_warehouse;
    think_time_s = s.think_time_s;
    seed = s.seed;
    gc_interval_s = s.gc_interval_s;
    mix = w.Workloads.mix;
  }

let kind_index = List.mapi (fun i k -> (W.tx_kind_to_string k, i)) W.all_kinds

let count_events bus =
  let e = { total = 0; hint_hits = 0; hint_sets = 0; bgwriter_pages = 0; index_deltas = 0 } in
  Bus.subscribe bus (fun ev ->
      e.total <- e.total + 1;
      match ev with
      | Bus.Hint_hit _ -> e.hint_hits <- e.hint_hits + 1
      | Bus.Hint_set _ -> e.hint_sets <- e.hint_sets + 1
      | Bus.Bgwriter_pass { pages } -> e.bgwriter_pages <- e.bgwriter_pages + pages
      | Bus.Index_page_io { deltas; _ } -> e.index_deltas <- e.index_deltas + deltas
      | Bus.Span { cat = "txn"; name; _ } -> Probe.Latency.tag (List.assoc name kind_index)
      | _ -> ());
  e

let ns_to_s ns = float_of_int ns *. 1e-9

module Body (E : Mvcc.Engine.S) = struct
  module WE = W.Make (E)

  let index_summaries eng = List.concat_map snd (E.index_summary eng)

  let sum_index f eng =
    float_of_int (List.fold_left (fun a s -> a + f s) 0 (index_summaries eng))

  let device_info db k =
    Option.value ~default:0.0 (List.assoc_opt k (Device.info db.Db.device))

  (* Cumulative counters; a round reports their change over the run. *)
  let counters db eng =
    let bs = Bufpool.stats db.Db.pool in
    let ssi f = match Db.ssimgr db with Some m -> float_of_int (f m) | None -> 0.0 in
    let gc = Gc.quick_stat () in
    [
      ("pool_hits", float_of_int bs.Bufpool.hits);
      ("pool_misses", float_of_int bs.misses);
      ("pool_evictions", float_of_int bs.evictions);
      ("pool_flushes", float_of_int bs.flushes);
      ("checkpoints", float_of_int (Bgwriter.checkpoints db.Db.bgwriter));
      ("wal_appends", float_of_int (Wal.current_lsn db.Db.wal));
      ("wal_bytes", float_of_int (Wal.bytes_written db.Db.wal));
      ("wal_flushes", float_of_int (Wal.flush_count db.Db.wal));
      ("index_inserts", sum_index (fun s -> s.Mvcc.Index.s_inserts) eng);
      ("index_splits", sum_index (fun s -> s.Mvcc.Index.s_splits) eng);
      ("host_writes", device_info db "host_writes");
      ("erases", device_info db "erases");
      ("ssi_siread", ssi Mvcc.Ssimgr.siread_locks);
      ("ssi_rw_edges", ssi (fun m -> Mvcc.Ssimgr.lineage_edges m + Mvcc.Ssimgr.table_edges m));
      ("ssi_pivot_aborts", ssi Mvcc.Ssimgr.pivot_aborts);
      ("minor_words", gc.Gc.minor_words);
      ("minor_collections", float_of_int gc.Gc.minor_collections);
      ("major_collections", float_of_int gc.Gc.major_collections);
    ]

  let gauges db eng =
    [
      ("index_nodes", sum_index (fun s -> s.Mvcc.Index.s_nodes) eng);
      ( "index_height",
        float_of_int
          (List.fold_left (fun a s -> max a s.Mvcc.Index.s_height) 0 (index_summaries eng)) );
      ("wal_retained_mb", float_of_int (Wal.retained_bytes db.Db.wal) /. 1048576.0);
      ("commit_fsyncs", float_of_int (Commitpipe.stats db.Db.commitpipe).Commitpipe.commit_fsyncs);
      ("write_amplification", device_info db "write_amplification");
    ]

  (* TPC-C consistency after the run: W_YTD = sum of its districts'
     D_YTD, and each district's newest order is D_NEXT_O_ID - 1. *)
  let consistent eng (tb : WE.tables) (cfg : W.config) =
    let txn = E.begin_txn eng in
    let ok = ref true in
    for w = 1 to cfg.W.warehouses do
      let d_ytd = ref 0.0 in
      for d = 1 to cfg.W.scale.S.districts_per_warehouse do
        match E.read eng txn tb.WE.district ~pk:(S.district_key ~w ~d) with
        | None -> ok := false
        | Some row ->
            d_ytd := !d_ytd +. Value.float row.(Col.d_ytd);
            let next = Value.int row.(Col.d_next_o_id) in
            let order o = E.read eng txn tb.WE.orders ~pk:(S.order_key ~w ~d ~o) in
            if order (next - 1) = None || order next <> None then ok := false
      done;
      match E.read eng txn tb.WE.warehouse ~pk:w with
      | Some row when Float.abs (Value.float row.(Col.w_ytd) -. !d_ytd) < 0.01 -> ()
      | _ -> ok := false
    done;
    E.abort eng txn;
    !ok

  let go ~traced (s : X.setup) cfg =
    let t0 = Probe.now_ns () in
    let raw = data_device s in
    let device = if traced then Probe.traced_device raw else raw in
    Blocktrace.set_keep_records (Device.trace device) false;
    let bus = Bus.create () in
    let db =
      Db.create ~bus ~device ~buffer_pages:s.X.buffer_pages
        ~flush_policy:
          (match s.flush with
          | X.T1 -> Bgwriter.T1_bgwriter { interval = 0.2; max_pages = 100 }
          | X.T2 -> Bgwriter.T2_checkpoint_only)
        ~checkpoint_interval:s.checkpoint_interval_s
        ?append_seal_interval:(match s.flush with X.T1 -> Some 0.2 | X.T2 -> None)
        ~os_cache_interval:30.0 ~os_cache_pages:(s.buffer_pages / 4)
        ~vidmap_paged:s.vidmap_paged ~contention:s.contention
        ~isolation:(Option.get (Mvcc.Isolation.of_string s.isolation))
        ~index:(if s.index = "paged" then `Paged else `Array)
        ()
    in
    let checker =
      if not s.check_si then None
      else if traced then Some (Probe.traced_checker bus)
      else Some (Mvcc.Sichecker.attach bus)
    in
    let eng = E.create db in
    let tables = WE.create_tables eng in
    WE.load eng tables cfg;
    Commitpipe.finalize db.Db.commitpipe;
    Bufpool.flush_all db.Db.pool ~sync:false;
    Bufpool.flush_os_cache db.Db.pool;
    Blocktrace.reset (Device.trace device);
    Commitpipe.reset_stats db.Db.commitpipe;
    let setup_ns = Probe.now_ns () - t0 in
    let events = if traced then Some (count_events bus) else None in
    let before = counters db eng in
    Probe.reset ();
    Probe.Latency.reset ();
    Probe.Latency.recording := true;
    let t1 = Probe.now_ns () in
    if traced then Probe.enter Probe.tpcc;
    let result = WE.run eng tables cfg in
    if traced then Probe.leave ();
    let run_ns = Probe.now_ns () - t1 in
    Probe.Latency.recording := false;
    let after = counters db eng in
    let spans = if traced then List.map (fun sp -> { sp with Probe.calls = sp.Probe.calls }) Probe.all else [] in
    (* run_tpcc's device counts also cover the sync and the table-stats
       scans after the run *)
    Bufpool.flush_os_cache db.Db.pool;
    List.iter
      (fun t -> ignore (E.table_stats eng t))
      WE.[ tables.warehouse; tables.district; tables.customer; tables.history;
           tables.new_order; tables.orders; tables.order_line; tables.item; tables.stock ];
    let trace = Device.trace device in
    let sim =
      {
        committed = result.W.total_committed;
        aborted = result.total_aborted;
        failed = List.fold_left (fun a (_, k) -> a + k.W.failures) 0 result.per_kind;
        notpm = result.notpm;
        reads = Blocktrace.read_count trace;
        writes = Blocktrace.write_count trace;
        violations =
          (match checker with Some c -> Mvcc.Sichecker.violation_count c | None -> 0);
      }
    in
    {
      seed = s.X.seed;
      traced;
      setup_s = ns_to_s setup_ns;
      run_s = ns_to_s run_ns;
      sim;
      consistent = consistent eng tables cfg;
      attempts = !Probe.Latency.attempts;
      latency_ns = Probe.Latency.samples ();
      kinds = (if traced then Probe.Latency.kinds () else [||]);
      deltas = List.map2 (fun (k, a) (_, b) -> (k, b -. a)) before after;
      gauges = gauges db eng;
      events;
      spans;
    }
end

let round ~traced (w : Workloads.t) ~seed =
  let s = { w.Workloads.setup with X.seed } in
  check_supported s;
  let cfg = config w s in
  let (module E0 : Mvcc.Engine.S) = snd (Mvcc.Engine.resolve_exn s.X.engine) in
  let r =
    if traced then
      let module B = Body (Probe.Traced (E0)) in
      B.go ~traced s cfg
    else
      let module B = Body (Probe.Timed (E0)) in
      B.go ~traced s cfg
  in
  (* every round starts from the same heap: the last database is garbage *)
  Gc.full_major ();
  r

(* A run is a fixed number of rounds. Every workload is sized so that
   one measured phase takes about [round_s] host seconds on the
   reference host, so [seconds] of measurement is [seconds / round_s]
   rounds, and at least three (set-up time needs a median). The count
   does not depend on how fast the host happens to be, so two runs do
   the same work and their peak RSS compares like for like.

   Each round draws its inputs from its own seed, derived from [seed]
   (the first is [seed] itself), so a run averages over several input
   sets instead of repeating one. A traced measurement runs pairs: an
   untraced and a traced round on the same seed. *)
let round_s = 3
let rounds ~seconds = max 3 (seconds / round_s)
let round_seed seed i = seed + (7919 * i)

let measure ~traced ~seconds ~seed w =
  List.init (rounds ~seconds) (fun i ->
      if traced then round ~traced:(i mod 2 = 1) w ~seed:(round_seed seed (i / 2))
      else round ~traced:false w ~seed:(round_seed seed i))
