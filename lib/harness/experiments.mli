(** Experiment runner: one declarative setup per paper experiment.

    Builds the device (single SSD, SSD RAID-0, or HDD), the database
    context, the chosen engine and the TPC-C workload; loads; resets the
    block trace so the measured I/O is the benchmark run's (the paper
    traces the steady run, not the bulk load); runs to the simulated
    deadline; and reports throughput, response times, device write/read
    volumes, space consumption and device-model counters.

    Engines are named by their registry key ("si", "si-cv", "sias",
    "sias-v" — see {!Mvcc.Engine.resolve}); unknown keys raise
    [Invalid_argument] when the experiment runs. *)

val engine_name : string -> string
(** Display name for an engine key ({!Mvcc.Engine.display_name}). *)

type device_kind = Ssd_single | Ssd_sized of int (** blocks *) | Ssd_raid of int | Hdd_single

type flush =
  | T1  (** PostgreSQL background-writer default: 200 ms trickle *)
  | T2  (** checkpoint piggy-back only (30 s) *)

type setup = {
  engine : string;  (** registry key or alias, e.g. "sias-v" *)
  isolation : string;
      (** isolation key or alias, e.g. "ssi"; default "si". The standby
          (replication) database always runs plain SI — it only installs
          shipped WAL and never executes transactions of its own. *)
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
      (** PostgreSQL's checkpoint_timeout; the paper's runs use the 5 min
          default against 10–30 min runs, a 2–6x ratio *)
  vidmap_paged : bool;  (** VID_map buckets live in buffer-pool pages *)
  keep_trace_records : bool;  (** retain per-request records (Figures 3/4) *)
  synchronous_commit : bool;
      (** PostgreSQL's synchronous_commit: [false] acks commits at WAL
          append and lets the WAL-writer trickle flush them (bounded-loss
          window, no corruption); default [true] *)
  commit_delay_s : float;
      (** PostgreSQL's commit_delay: > 0 groups commits arriving within
          this window behind one shared fsync; 0 = per-commit fsync *)
  wal_device : device_kind option;
      (** give the WAL its own modeled device (so commit fsyncs cost
          simulated time); [None] = in-memory WAL sink, the historical
          default *)
  fault_seed : int option;
      (** enable seeded fault injection (transient read errors, bit rot,
          torn writes) on the data device and WAL; [None] = no faults *)
  fault_profile : Flashsim.Faultdev.profile;
      (** fault rates used when [fault_seed] is set *)
  contention : Sias_txn.Contention.settings;
      (** seeds the retry backoff jitter *)
  retries : int;
      (** client retries per conflict-aborted transaction; 0 = off *)
  check_si : bool;  (** enable the online SI invariant checker *)
  metrics_out : string option;
      (** write run-phase metrics as Prometheus text to this path *)
  trace_out : string option;
      (** write a Chrome trace-event JSON of the run phase to this path *)
  stats_interval_s : float option;
      (** print a progress line to stderr every this many simulated
          seconds; [run_tpcc] raises [Invalid_argument] when it is not
          positive *)
  collect_metrics : bool;
      (** attach the metrics recorder even without [metrics_out] — the
          {!output.metrics} field is then [Some] *)
  repl_mode : Sias_repl.Repl.mode option;
      (** stream the WAL to a hot standby: [Ship_async] ships after local
          fsync, [Remote_flush] makes commit acknowledgement wait for the
          standby flush ack; [None] = replication off (the default —
          nothing attaches, output is byte-identical to historical runs) *)
  repl_link : Sias_repl.Link.profile;
      (** simulated replication-link fault profile (clean, wan, lossy,
          chaos) used when [repl_mode] is set *)
  repl_seed : int;  (** seed for the link's deterministic fault stream *)
  index : string;
      (** index implementation the engines build through {!Mvcc.Index}:
          ["array"] (default — the golden, heap-rebuilt node-image tree)
          or ["paged"] (WAL-logged slotted pages, crash-recovered in
          place) *)
  measure_index_io : bool;
      (** subscribe a page-flush classifier splitting device writes into
          index-page vs other traffic for the measured run; off by
          default because subscribing activates the bus, which golden
          runs must not do *)
}

val default_setup : engine:string -> warehouses:int -> setup
(** Single SSD, T2, 2048 buffer pages, 1/100 scale, 60 s, 1 terminal/WH,
    1 s think time; no observability outputs. *)

(* Index-vs-heap split of the run's page-flush traffic plus the index's
   logical volume; the ratio ix_flush_mb / ix_logical_mb is the index
   write amplification the bench reports. *)
type index_io = {
  ix_flush_mb : float;  (** index pages flushed to the device, MB *)
  ix_flush_count : int;
  heap_flush_mb : float;  (** every other page flush: heap + VID_map *)
  heap_flush_count : int;
  ix_logical_mb : float;
      (** cumulative logical entry volume: insertions (including later
          deleted ones) x 16 bytes *)
  ix_entries : int;  (** live entries across all indexes at end of run *)
  ix_nodes : int;
  ix_height : int;  (** tallest index *)
  ix_splits : int;
  ix_merges : int;
}

type output = {
  setup : setup;
  result : Tpcc.Tpcc_workload.result;
  load_write_mb : float;  (** device writes during the bulk load *)
  run_write_mb : float;  (** device writes during the measured run *)
  run_read_mb : float;
  run_write_count : int;
  run_read_count : int;
  space_mb : float;  (** heap pages allocated across all relations *)
  avg_fill : float;  (** mean live fill of heap pages *)
  device_info : (string * float) list;
  buf_stats : Sias_storage.Bufpool.stats;
  trace : Flashsim.Blocktrace.t;  (** the data device's run-phase trace *)
  contention_stats : Sias_txn.Contention.stats;
  commit_stats : Sias_wal.Commitpipe.stats;
      (** commit-pipeline counters over the measured run (fsyncs, group
          sizes, WAL-writer flushes, async backlog) *)
  wal_write_mb : float;
      (** run-phase writes to the WAL device; 0 when the WAL is the
          in-memory sink *)
  checker : Mvcc.Sichecker.t option;  (** present when [check_si] was set *)
  metrics : Sias_obs.Metrics.t option;
      (** present when metrics were collected; reset at the same instant
          as the block trace, so its device counters reconcile with
          {!Flashsim.Blocktrace.write_mb} *)
  repl_stats : Sias_repl.Repl.stats option;
      (** replication counters over the whole session (load + run) when
          [repl_mode] was set: batches/records/bytes shipped, records
          installed on the standby, standby lag, go-back-N retransmits,
          degraded remote-flush acknowledgements and raw link loss *)
  index_io : index_io option;
      (** present when [measure_index_io] was set; covers exactly the
          measured run (same window as the block trace) *)
}

val prepare : setup -> unit -> output
(** [prepare s] builds the database [s] asks for, loads it and settles it
    (flushes the load, resets the block trace and the run-phase
    counters), then returns the measured phase: calling it once runs the
    workload to the simulated deadline and reports. *)

val run_tpcc : setup -> output
(** [run_tpcc s = prepare s ()]. *)

(** A TPC-C run sharded across OCaml 5 domains (weak scaling: [warehouses]
    is per shard). Each shard runs {!prepare}'s database, shared-nothing;
    every shard has loaded before any measured phase starts. *)
type sharded = {
  shards : output array;
      (** shard [d]'s output. Shard 0 ran the setup unchanged, so it is
          the single-domain run; shard [d >= 1] drew [seed], [fault_seed],
          [repl_seed] and [contention.seed] from
          [Sias_util.Rng.stream ~seed ~stream:d]. *)
  wall_s : float;  (** host wall window: last measured stop - first start *)
  committed : int;
  new_orders : int;
  agg_notpm : float;  (** sum of the shards' simulated NOTPM *)
  wall_notpm : float;  (** committed new-orders * 60 / [wall_s] *)
  violations : int;
      (** checker violations over all shards, plus dependency cycles under
          a serializable level; 0 without [check_si] *)
}

val run_sharded : domains:int -> setup -> sharded
(** [domains = 1] runs inline on the calling domain. Raises
    [Invalid_argument] when [domains < 1]; a shard's exception is
    re-raised after every domain has joined. *)

val pp_sharded : Format.formatter -> sharded -> unit

val pp_output_summary : Format.formatter -> output -> unit
