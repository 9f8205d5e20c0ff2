module Rng = Sias_util.Rng
module Monotime = Sias_util.Monotime
module Domainpool = Sias_util.Domainpool
module Bus = Sias_obs.Bus
module W = Tpcc_workload

(* Sharded multicore TPC-C: domain [d] owns warehouses
   [d*wpd + 1 .. (d+1)*wpd] outright — engine, buffer pool, WAL,
   transaction manager, bus and checker are all private to the domain
   (shared-nothing, the netisr model: hash work to a CPU and keep it
   there). TPC-C's partitionability makes the shard map exact: every
   transaction's data, including the 1% remote-item new-orders and 15%
   remote-customer payments, lives inside the home warehouse's shard
   because remote warehouses are drawn from the shard's own range
   (locally the shard numbers its warehouses 1..wpd, so the unmodified
   single-domain driver runs verbatim per shard).

   Scaling is TPC-C's own weak scaling: warehouses are per domain, so N
   domains simulate an N-times larger system; aggregate NOTPM sums the
   shards and the wall clock shows the parallel speedup (each shard's
   simulated run is CPU-bound on its own core).

   Nothing crosses domains but the start barrier and each shard's
   outcome, returned to the coordinator when the domain joins. Every
   shard commits through its own Db's WAL. Per-shard determinism is
   preserved exactly — the shard's sim is a pure function of its config
   — so a multicore run is reproducible shard by shard regardless of
   scheduling, and the per-shard SI checker remains a complete oracle
   (no cross-shard row ever exists). *)

type config = {
  engine : string;
  domains : int;
  base : W.config;
      (** per-domain workload; [base.warehouses] is warehouses {e per
          domain} (weak scaling), [base.seed] derives one independent
          stream per domain *)
  isolation : Mvcc.Isolation.level;
  buffer_pages : int;
  check : bool;  (** attach a per-shard checker as oracle *)
}

let default_config ~engine ~domains ~warehouses_per_domain =
  {
    engine;
    domains;
    base = W.default_config ~warehouses:warehouses_per_domain;
    isolation = `Si;
    buffer_pages = 2048;
    check = true;
  }

type shard_outcome = {
  domain : int;
  w_lo : int;  (** first global warehouse id owned *)
  w_hi : int;
  result : W.result;
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
  violations : int;
}

let new_orders_of (r : W.result) =
  match List.assoc_opt W.New_order r.W.per_kind with
  | Some ks -> ks.W.committed
  | None -> 0

let run cfg =
  if cfg.domains < 1 then invalid_arg "Tpcc_multicore.run: domains must be >= 1";
  if cfg.base.W.warehouses < 1 then
    invalid_arg "Tpcc_multicore.run: warehouses_per_domain must be >= 1";
  (* Resolve the engine once on the coordinator; the first-class module
     is an immutable value, safe to close over in every worker. *)
  let (module E : Mvcc.Engine.S) =
    match Mvcc.Engine.find cfg.engine with
    | Some m -> m
    | None ->
        invalid_arg
          (Printf.sprintf "unknown engine %S; known engines: %s" cfg.engine
             (Mvcc.Engine.known_keys_hint ()))
  in
  (* One independent seed-derived stream per domain — a shared stream
     would silently correlate the shards' workloads. *)
  let streams =
    Array.init cfg.domains (fun d -> Rng.stream ~seed:cfg.base.W.seed ~stream:d)
  in
  Rng.assert_independent streams;
  let shard_seeds =
    Array.map (fun s -> Int64.to_int (Rng.int64 s) land max_int) streams
  in
  let barrier = Domainpool.Barrier.create cfg.domains in
  let wpd = cfg.base.W.warehouses in
  let worker d =
    let module WE = W.Make (E) in
    let shard_cfg = { cfg.base with W.seed = shard_seeds.(d) } in
    let bus = Bus.create () in
    let db =
      Mvcc.Db.create ~bus ~buffer_pages:cfg.buffer_pages ~isolation:cfg.isolation ()
    in
    let checker = if cfg.check then Some (Mvcc.Sichecker.attach bus) else None in
    let eng = E.create db in
    let tables = WE.create_tables eng in
    WE.load eng tables shard_cfg;
    (* Everyone loads before anyone's timed window opens. *)
    Domainpool.Barrier.wait barrier;
    let start_mono = Monotime.now () in
    let result = WE.run eng tables shard_cfg in
    let stop_mono = Monotime.now () in
    {
      domain = d;
      w_lo = (d * wpd) + 1;
      w_hi = (d + 1) * wpd;
      result;
      violations =
        (match checker with Some c -> Mvcc.Sichecker.violations c | None -> []);
      start_mono;
      stop_mono;
    }
  in
  let shards = Domainpool.run ~domains:cfg.domains worker in
  let min_start =
    Array.fold_left (fun acc s -> Float.min acc s.start_mono) infinity shards
  in
  let max_stop =
    Array.fold_left (fun acc s -> Float.max acc s.stop_mono) neg_infinity shards
  in
  let wall_s = Float.max (max_stop -. min_start) 1e-9 in
  let total_committed =
    Array.fold_left (fun acc s -> acc + s.result.W.total_committed) 0 shards
  in
  let total_new_orders =
    Array.fold_left (fun acc s -> acc + new_orders_of s.result) 0 shards
  in
  let agg_notpm =
    Array.fold_left (fun acc s -> acc +. s.result.W.notpm) 0.0 shards
  in
  let violations =
    Array.fold_left
      (fun acc (s : shard_outcome) -> acc + List.length s.violations)
      0 shards
  in
  {
    config = cfg;
    shards;
    wall_s;
    total_committed;
    total_new_orders;
    agg_notpm;
    wall_notpm = float_of_int total_new_orders *. 60.0 /. wall_s;
    violations;
  }

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>multicore tpcc: engine=%s domains=%d warehouses/domain=%d@,"
    r.config.engine r.config.domains r.config.base.W.warehouses;
  Array.iter
    (fun s ->
      Format.fprintf ppf
        "  domain %d (warehouses %d-%d): %.0f NOTPM, %d committed, %d \
         violations@,"
        s.domain s.w_lo s.w_hi s.result.W.notpm s.result.W.total_committed
        (List.length s.violations))
    r.shards;
  Format.fprintf ppf
    "  aggregate: %.0f NOTPM (sim), %.0f NOTPM (wall over %.2fs), %d \
     committed, %d new-orders, %d violations@]"
    r.agg_notpm r.wall_notpm r.wall_s r.total_committed r.total_new_orders
    r.violations
