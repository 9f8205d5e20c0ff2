(* The four workloads. Each is a fixed amount of simulated work: an
   Experiments setup (engine, isolation, index, pool, flush policy,
   warehouses, simulated duration) plus a transaction mix. The load is
   closed-loop in simulated time: every terminal sends its next
   transaction only after the previous one completed plus an
   exponential think time; on the host this is one serial loop.

   Sizes keep one round to a few host seconds and a few hundred MB, so a
   measurement can set up several times: the paper's 100 warehouses are
   30 here, with the pool shrunk in proportion so the data still
   overflows it. *)

module X = Harness.Experiments
module W = Tpcc.Tpcc_workload

type t = {
  name : string;
  why : string;
  setup : X.setup;  (** [seed] is replaced by the run's seed *)
  mix : (int * W.tx_kind) list;
}

let standard_mix = (W.default_config ~warehouses:1).W.mix

let all =
  [
    {
      name = "paper-siasv-t1";
      why =
        "the paper's Table 1 / Figure 3 traffic: SIAS-V, t1 bgwriter, GC, data \
         larger than the pool; what every paper chapter runs";
      setup =
        {
          (X.default_setup ~engine:"sias-v" ~warehouses:30) with
          flush = X.T1;
          buffer_pages = 1024;
          gc_interval_s = Some 30.0;
          duration_s = 120.0;
        };
      mix = standard_mix;
    };
    {
      name = "index-si-paged";
      why =
        "SI on the paged B+Tree with a pool far below heap plus index: the only \
         workload where index decoding, eviction and device I/O dominate";
      setup =
        {
          (X.default_setup ~engine:"si" ~warehouses:2) with
          index = "paged";
          buffer_pages = 128;
          think_time_s = 0.2;
          gc_interval_s = Some 30.0;
          duration_s = 80.0;
        };
      mix = standard_mix;
    };
    {
      name = "ssi-sias-checked";
      why =
        "SIAS chains under SSI with the SI checker on, 8 terminals per \
         warehouse: the only workload with the bus active, where Ssimgr and \
         the checker work";
      setup =
        {
          (X.default_setup ~engine:"sias" ~warehouses:2) with
          isolation = "ssi";
          check_si = true;
          terminals_per_warehouse = 8;
          think_time_s = 0.2;
          scale_div = 10;
          buffer_pages = 8192;
          gc_interval_s = Some 30.0;
          duration_s = 100.0;
        };
      mix = standard_mix;
    };
    {
      name = "readmostly-siasv";
      why =
        "SIAS-V with 92% order-status/stock-level, no think time, no GC, data \
         inside the pool: reads over growing version vectors are the work";
      setup =
        {
          (X.default_setup ~engine:"sias-v" ~warehouses:20) with
          buffer_pages = 4096;
          think_time_s = 0.0;
          gc_interval_s = None;
          duration_s = 40.0;
        };
      mix =
        [ (4, W.New_order); (4, W.Payment); (46, W.Order_status); (46, W.Stock_level) ];
    };
  ]
