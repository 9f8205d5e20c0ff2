type state = {
  m : Metrics.t;
  txn : (string, Metrics.counter) Hashtbl.t;
  page : (string, Metrics.counter) Hashtbl.t;
  wal_records : (string, Metrics.counter) Hashtbl.t;
  wal_bytes : Metrics.counter;
  wal_flushes : (bool, Metrics.counter) Hashtbl.t;
  wal_flush_bytes : Metrics.counter;
  (* created on the first Commit_group event so runs without group
     commit export exactly the historical metric set *)
  mutable commit_group_metrics :
    (Metrics.counter * Metrics.counter * Metrics.counter * Metrics.histogram)
    option;
  dev_io : (string * Bus.io_op, Metrics.counter) Hashtbl.t;
  dev_bytes : (string * Bus.io_op, Metrics.counter) Hashtbl.t;
  dev_lat : (string * Bus.io_op, Metrics.histogram) Hashtbl.t;
  faults : (string, Metrics.counter) Hashtbl.t;
  (* created on the first hint event so runs predating hint bits export
     exactly the historical metric set *)
  hints : (string, Metrics.counter) Hashtbl.t;
  mutable clog_avoided : Metrics.counter option;
  checkpoints : Metrics.counter;
  checkpoint_pages : Metrics.counter;
  bgwriter_passes : Metrics.counter;
  bgwriter_pages : Metrics.counter;
  gc_runs : (string, Metrics.counter) Hashtbl.t;
  gc_erases : (string, Metrics.counter) Hashtbl.t;
  gc_moved : (string, Metrics.counter) Hashtbl.t;
  spans : (string * string, Metrics.histogram) Hashtbl.t;
  (* created on the first Repl_* event so runs without replication export
     exactly the historical metric set *)
  mutable repl :
    (Metrics.counter * Metrics.counter * Metrics.counter * Metrics.counter
    * Metrics.counter * Metrics.gauge)
    option;
  (* created on the first resource-pressure event (reclaim, backpressure,
     degraded) so unbounded runs export the historical metric set *)
  pressure : (string, Metrics.counter) Hashtbl.t;
  (* created on the first SSI/WSI event so plain-SI runs export exactly
     the historical metric set *)
  ssi : (string, Metrics.counter) Hashtbl.t;
  (* created on the first paged-index event so array-index runs export
     exactly the historical metric set *)
  ix : (string, Metrics.counter) Hashtbl.t;
  mutable ssi_pivot_total : int;
  mutable ssi_pivot_confirmed : int;
  mutable ssi_fpr : Metrics.gauge option;
}

let memo tbl key fresh =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = fresh () in
      Hashtbl.add tbl key v;
      v

let txn_counter st event =
  memo st.txn event (fun () ->
      Metrics.counter st.m ~help:"Transaction lifecycle events"
        ~labels:[ ("event", event) ]
        "sias_txn_total")

let page_counter st event =
  memo st.page event (fun () ->
      Metrics.counter st.m ~help:"Buffer-pool page events"
        ~labels:[ ("event", event) ]
        "sias_page_ops_total")

let dev_labels device op =
  [ ("device", device); ("op", Bus.io_op_to_string op) ]

let repl_metrics st =
  match st.repl with
  | Some v -> v
  | None ->
      let v =
        ( Metrics.counter st.m ~help:"Replication ship batches sent"
            "sias_repl_ships_total",
          Metrics.counter st.m ~help:"WAL records handed to the replication link"
            "sias_repl_shipped_records_total",
          Metrics.counter st.m ~help:"WAL bytes handed to the replication link"
            "sias_repl_shipped_bytes_total",
          Metrics.counter st.m ~help:"WAL records installed by the standby"
            "sias_repl_installed_records_total",
          Metrics.counter st.m
            ~help:"Remote-flush commits degraded to local-only ack"
            "sias_repl_degraded_acks_total",
          Metrics.gauge st.m ~help:"Highest standby LSN acknowledged to the sender"
            "sias_repl_acked_lsn" )
      in
      st.repl <- Some v;
      v

let on_event st e =
  match e with
  | Bus.Txn_begin _ -> Metrics.incr (txn_counter st "begin")
  | Bus.Txn_commit _ -> Metrics.incr (txn_counter st "commit")
  | Bus.Txn_abort _ -> Metrics.incr (txn_counter st "abort")
  | Bus.Txn_retry _ -> Metrics.incr (txn_counter st "retry")
  | Bus.Txn_shed -> Metrics.incr (txn_counter st "shed")
  | Bus.Page_hit _ -> Metrics.incr (page_counter st "hit")
  | Bus.Page_miss _ -> Metrics.incr (page_counter st "miss")
  | Bus.Page_evict _ -> Metrics.incr (page_counter st "evict")
  | Bus.Page_flush _ -> Metrics.incr (page_counter st "flush")
  | Bus.Page_repair _ -> Metrics.incr (page_counter st "repair")
  | Bus.Page_trim _ -> Metrics.incr (page_counter st "trim")
  | Bus.Wal_append { kind; bytes } ->
      Metrics.incr
        (memo st.wal_records kind (fun () ->
             Metrics.counter st.m ~help:"WAL records appended"
               ~labels:[ ("kind", kind) ]
               "sias_wal_records_total"));
      Metrics.add st.wal_bytes bytes
  | Bus.Wal_flush { sync; bytes } ->
      Metrics.incr
        (memo st.wal_flushes sync (fun () ->
             Metrics.counter st.m ~help:"WAL flushes"
               ~labels:[ ("sync", if sync then "true" else "false") ]
               "sias_wal_flushes_total"));
      Metrics.add st.wal_flush_bytes bytes
  | Bus.Commit_group { size } ->
      let groups, grouped, saved, hist =
        match st.commit_group_metrics with
        | Some v -> v
        | None ->
            let v =
              ( Metrics.counter st.m ~help:"Commit groups fsynced"
                  "sias_commit_groups_total",
                Metrics.counter st.m ~help:"Commits covered by a group fsync"
                  "sias_commit_grouped_total",
                Metrics.counter st.m
                  ~help:"Per-commit fsyncs saved by group commit"
                  "sias_commit_fsyncs_saved_total",
                Metrics.histogram st.m ~help:"Commit group size"
                  ~bucket_width:1.0 ~buckets:64 "sias_commit_group_size" )
            in
            st.commit_group_metrics <- Some v;
            v
      in
      Metrics.incr groups;
      Metrics.add grouped size;
      Metrics.add saved (size - 1);
      Metrics.observe hist (float_of_int size)
  | Bus.Device_io { device; op; bytes; latency_s; _ } ->
      Metrics.incr
        (memo st.dev_io (device, op) (fun () ->
             Metrics.counter st.m ~help:"Device requests"
               ~labels:(dev_labels device op) "sias_device_io_total"));
      Metrics.add
        (memo st.dev_bytes (device, op) (fun () ->
             Metrics.counter st.m ~help:"Device bytes transferred"
               ~labels:(dev_labels device op) "sias_device_bytes_total"))
        bytes;
      Metrics.observe
        (memo st.dev_lat (device, op) (fun () ->
             Metrics.histogram st.m ~help:"Device request latency (s)"
               ~labels:(dev_labels device op) ~bucket_width:0.0001 ~buckets:1000
               "sias_device_latency_seconds"))
        latency_s
  | Bus.Device_trim _ -> Metrics.incr (page_counter st "device_trim")
  | Bus.Fault_hit { kind; _ } ->
      Metrics.incr
        (memo st.faults kind (fun () ->
             Metrics.counter st.m ~help:"Injected-fault hits"
               ~labels:[ ("kind", kind) ]
               "sias_fault_hits_total"))
  | Bus.Hint_set { committed; _ } ->
      Metrics.incr
        (memo st.hints
           (if committed then "set_committed" else "set_aborted")
           (fun () ->
             Metrics.counter st.m ~help:"Tuple hint-bit events"
               ~labels:
                 [ ("event", if committed then "set_committed" else "set_aborted") ]
               "sias_hint_bits_total"))
  | Bus.Hint_hit _ ->
      Metrics.incr
        (memo st.hints "hit" (fun () ->
             Metrics.counter st.m ~help:"Tuple hint-bit events"
               ~labels:[ ("event", "hit") ]
               "sias_hint_bits_total"));
      let avoided =
        match st.clog_avoided with
        | Some c -> c
        | None ->
            let c =
              Metrics.counter st.m
                ~help:"Visibility checks answered by a hint bit (no CLOG lookup)"
                "sias_clog_lookups_avoided_total"
            in
            st.clog_avoided <- Some c;
            c
      in
      Metrics.incr avoided
  | Bus.Checkpoint { pages } ->
      Metrics.incr st.checkpoints;
      Metrics.add st.checkpoint_pages pages
  | Bus.Bgwriter_pass { pages } ->
      Metrics.incr st.bgwriter_passes;
      Metrics.add st.bgwriter_pages pages
  | Bus.Ftl_gc { device; moved_pages; erases } ->
      let dev_counter tbl name help =
        memo tbl device (fun () ->
            Metrics.counter st.m ~help ~labels:[ ("device", device) ] name)
      in
      Metrics.incr (dev_counter st.gc_runs "sias_ftl_gc_total" "FTL GC rounds");
      Metrics.add
        (dev_counter st.gc_erases "sias_ftl_gc_erases_total" "FTL GC block erases")
        erases;
      Metrics.add
        (dev_counter st.gc_moved "sias_ftl_gc_moved_pages_total"
           "Flash pages relocated by GC")
        moved_pages
  | Bus.Span { cat; name; t0; t1; _ } ->
      Metrics.observe
        (memo st.spans (cat, name) (fun () ->
             Metrics.histogram st.m ~help:"Span durations (s)"
               ~labels:[ ("cat", cat); ("name", name) ]
               "sias_span_seconds"))
        (Float.max 0.0 (t1 -. t0))
  | Bus.Repl_ship { records; bytes } ->
      let ships, ship_recs, ship_bytes, _, _, _ = repl_metrics st in
      Metrics.incr ships;
      Metrics.add ship_recs records;
      Metrics.add ship_bytes bytes
  | Bus.Repl_install { records } ->
      let _, _, _, installed, _, _ = repl_metrics st in
      Metrics.add installed records
  | Bus.Repl_ack { lsn } ->
      let _, _, _, _, _, acked = repl_metrics st in
      Metrics.set_gauge acked (float_of_int lsn)
  | Bus.Repl_degraded ->
      let _, _, _, _, degraded, _ = repl_metrics st in
      Metrics.incr degraded
  | Bus.Wal_reclaim { freed_bytes; _ } ->
      Metrics.incr
        (memo st.pressure "wal_reclaims" (fun () ->
             Metrics.counter st.m ~help:"WAL reclamations under capacity pressure"
               "sias_wal_reclaims_total"));
      Metrics.add
        (memo st.pressure "wal_reclaimed_bytes" (fun () ->
             Metrics.counter st.m
               ~help:"WAL bytes recycled by reclamation"
               "sias_wal_reclaimed_bytes_total"))
        freed_bytes
  | Bus.Backpressure { on; _ } ->
      let state = if on then "on" else "off" in
      Metrics.incr
        (memo st.pressure ("backpressure_" ^ state) (fun () ->
             Metrics.counter st.m ~help:"Admission backpressure toggles"
               ~labels:[ ("state", state) ]
               "sias_backpressure_toggles_total"))
  | Bus.Degraded { subsystem; _ } ->
      Metrics.incr
        (memo st.pressure ("degraded_" ^ subsystem) (fun () ->
             Metrics.counter st.m ~help:"Read-only degraded-mode entries"
               ~labels:[ ("subsystem", subsystem) ]
               "sias_degraded_total"))
  | Bus.Ssi_siread { predicate; _ } ->
      let kind = if predicate then "predicate" else "key" in
      Metrics.incr
        (memo st.ssi ("siread_" ^ kind) (fun () ->
             Metrics.counter st.m ~help:"SIREAD locks taken"
               ~labels:[ ("kind", kind) ]
               "sias_ssi_siread_locks_total"))
  | Bus.Ssi_rw_edge { lineage; _ } ->
      let source = if lineage then "lineage" else "table" in
      Metrics.incr
        (memo st.ssi ("rw_edge_" ^ source) (fun () ->
             Metrics.counter st.m
               ~help:
                 "rw-antidependency edges observed (lineage = harvested from \
                  co-located version metadata, table = SIREAD/write-table probe)"
               ~labels:[ ("source", source) ]
               "sias_ssi_rw_edges_total"))
  | Bus.Ssi_pivot_abort { confirmed; _ } ->
      let c = if confirmed then "true" else "false" in
      Metrics.incr
        (memo st.ssi ("pivot_" ^ c) (fun () ->
             Metrics.counter st.m ~help:"Dangerous-structure pivot aborts"
               ~labels:[ ("confirmed", c) ]
               "sias_ssi_pivot_aborts_total"));
      st.ssi_pivot_total <- st.ssi_pivot_total + 1;
      if confirmed then st.ssi_pivot_confirmed <- st.ssi_pivot_confirmed + 1;
      let fpr =
        match st.ssi_fpr with
        | Some g -> g
        | None ->
            let g =
              Metrics.gauge st.m
                ~help:
                  "Fraction of pivot aborts not confirmed as a committed \
                   2-cycle (upper bound on false positives)"
                "sias_ssi_false_positive_rate"
            in
            st.ssi_fpr <- Some g;
            g
      in
      Metrics.set_gauge fpr
        (1.0 -. (float_of_int st.ssi_pivot_confirmed /. float_of_int st.ssi_pivot_total))
  | Bus.Wsi_certify_abort _ ->
      Metrics.incr
        (memo st.ssi "wsi_certify" (fun () ->
             Metrics.counter st.m ~help:"WSI read-certification aborts"
               "sias_wsi_certify_aborts_total"))
  | Bus.Ssi_safe_snapshot _ ->
      Metrics.incr
        (memo st.ssi "safe_snapshot" (fun () ->
             Metrics.counter st.m
               ~help:"Read-only transactions granted a safe snapshot (no tracking)"
               "sias_ssi_safe_snapshots_total"))
  | Bus.Index_split _ ->
      Metrics.incr
        (memo st.ix "splits" (fun () ->
             Metrics.counter st.m ~help:"Paged-index node splits"
               "sias_index_splits_total"))
  | Bus.Index_merge _ ->
      Metrics.incr
        (memo st.ix "merges" (fun () ->
             Metrics.counter st.m ~help:"Paged-index node merges"
               "sias_index_merges_total"))
  | Bus.Index_page_io { deltas; _ } ->
      Metrics.incr
        (memo st.ix "pages_written" (fun () ->
             Metrics.counter st.m
               ~help:"Index pages modified by WAL-logged structural changes"
               "sias_index_pages_written_total"));
      Metrics.add
        (memo st.ix "deltas" (fun () ->
             Metrics.counter st.m
               ~help:"Index slot deltas applied to pages"
               "sias_index_deltas_total"))
        deltas
  | _ -> ()

let attach m bus =
  let st =
    {
      m;
      txn = Hashtbl.create 8;
      page = Hashtbl.create 8;
      wal_records = Hashtbl.create 8;
      wal_bytes = Metrics.counter m ~help:"WAL bytes appended" "sias_wal_bytes_total";
      wal_flushes = Hashtbl.create 2;
      wal_flush_bytes =
        Metrics.counter m ~help:"WAL bytes flushed" "sias_wal_flushed_bytes_total";
      commit_group_metrics = None;
      dev_io = Hashtbl.create 8;
      dev_bytes = Hashtbl.create 8;
      dev_lat = Hashtbl.create 8;
      faults = Hashtbl.create 8;
      hints = Hashtbl.create 4;
      clog_avoided = None;
      checkpoints =
        Metrics.counter m ~help:"Checkpoints completed" "sias_checkpoints_total";
      checkpoint_pages =
        Metrics.counter m ~help:"Pages written by checkpoints"
          "sias_checkpoint_pages_total";
      bgwriter_passes =
        Metrics.counter m ~help:"Background-writer sweeps" "sias_bgwriter_passes_total";
      bgwriter_pages =
        Metrics.counter m ~help:"Pages written by the background writer"
          "sias_bgwriter_pages_total";
      gc_runs = Hashtbl.create 4;
      gc_erases = Hashtbl.create 4;
      gc_moved = Hashtbl.create 4;
      spans = Hashtbl.create 16;
      repl = None;
      pressure = Hashtbl.create 4;
      ssi = Hashtbl.create 8;
      ix = Hashtbl.create 4;
      ssi_pivot_total = 0;
      ssi_pivot_confirmed = 0;
      ssi_fpr = None;
    }
  in
  Bus.subscribe bus (on_event st)

(* Reliability counters live in layer-local stats records (device info,
   buffer-pool stats) rather than on the bus: they are cheap running
   totals, not events. Export them as labeled gauges at collection time
   so the Prometheus/JSON artifacts carry them alongside the event-fed
   families. *)
let export_reliability m ~scope kvs =
  List.iter
    (fun (key, v) ->
      Metrics.set_gauge
        (Metrics.gauge m ~help:"Reliability counters (device info, buffer-pool repair stats)"
           ~labels:[ ("scope", scope); ("key", key) ]
           "sias_reliability_info")
        v)
    kvs
