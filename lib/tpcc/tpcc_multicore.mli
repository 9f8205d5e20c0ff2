(** Sharded multicore TPC-C on OCaml 5 domains.

    Domain [d] owns warehouses [d*wpd+1 .. (d+1)*wpd] outright: engine,
    buffer pool, WAL, transaction manager, bus and SI checker are
    private to the domain (shared-nothing). TPC-C partitions exactly —
    remote-item/remote-customer selections stay inside the shard — so
    the unmodified single-domain driver runs verbatim per shard, each
    shard is deterministic in isolation, and the per-shard checker is a
    complete oracle. Nothing crosses domains but the start barrier and
    each shard's outcome; every shard commits through its own WAL.

    Scaling is TPC-C's weak scaling: warehouses are per domain, N
    domains simulate an N-times larger system. Aggregate NOTPM sums the
    shards; [wall_s] shows the parallel speedup on real cores. *)

type config = {
  engine : string;  (** registry key: si / si-cv / sias / sias-v *)
  domains : int;
  base : Tpcc_workload.config;
      (** per-domain workload; [base.warehouses] is warehouses {e per
          domain}, [base.seed] derives one independent stream per domain
          via {!Sias_util.Rng.stream} *)
  isolation : Mvcc.Isolation.level;
  buffer_pages : int;  (** per domain *)
  check : bool;  (** attach a per-shard [Mvcc.Sichecker] *)
}

val default_config :
  engine:string -> domains:int -> warehouses_per_domain:int -> config
(** Standard TPC-C mix, 2048 buffer pages, checker on, snapshot
    isolation. *)

type shard_outcome = {
  domain : int;
  w_lo : int;  (** first global warehouse id owned *)
  w_hi : int;
  result : Tpcc_workload.result;
  violations : string list;
  start_mono : float;  (** monotonic wall time entering the timed run *)
  stop_mono : float;
}

type result = {
  config : config;
  shards : shard_outcome array;
  wall_s : float;  (** timed window: max stop - min start across shards *)
  total_committed : int;
  total_new_orders : int;
  agg_notpm : float;  (** sum of per-shard simulated NOTPM *)
  wall_notpm : float;  (** committed new-orders * 60 / wall_s *)
  violations : int;  (** total checker violations across shards — 0 or bust *)
}

val run : config -> result
(** Load and run every shard ([domains = 1] runs inline on the calling
    domain — the deterministic path). The timed window
    opens after every shard has loaded (barrier). Raises on an unknown
    engine key or an invalid domain/warehouse count. *)

val pp_result : Format.formatter -> result -> unit
