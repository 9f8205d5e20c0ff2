(* Multicore substrate tests: per-domain RNG streams, monotonic timing,
   NaN-safe percentiles, the CLOG model, bus domain ownership, and the
   sharded TPC-C runner with the SI checker as oracle. *)

open Sias_util
module Bus = Sias_obs.Bus
module Txn = Sias_txn.Txn
module W = Tpcc.Tpcc_workload
module E = Harness.Experiments

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* RNG streams *)

let test_stream_zero_is_create () =
  let a = Rng.create 42 and b = Rng.stream ~seed:42 ~stream:0 in
  for _ = 1 to 200 do
    checki "stream 0 = create" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done

let test_streams_differ () =
  let n = 16 in
  let streams = Array.init n (fun i -> Rng.stream ~seed:7 ~stream:i) in
  Rng.assert_independent streams;
  (* distinct fingerprints *)
  let fps =
    Array.to_list streams |> List.map Rng.fingerprint |> List.sort_uniq compare
  in
  checki "all fingerprints distinct" n (List.length fps);
  (* pairwise distinct output prefixes *)
  let prefixes =
    Array.map (fun s -> List.init 8 (fun _ -> Rng.int64 s)) streams
  in
  let uniq = Array.to_list prefixes |> List.sort_uniq compare in
  checki "all output prefixes distinct" n (List.length uniq)

let test_stream_determinism () =
  let a = Rng.stream ~seed:3 ~stream:5 and b = Rng.stream ~seed:3 ~stream:5 in
  for _ = 1 to 100 do
    checki "same (seed,stream) same output" (Rng.int a 9999) (Rng.int b 9999)
  done

let test_assert_independent_fails_loudly () =
  let dup = [| Rng.stream ~seed:1 ~stream:3; Rng.stream ~seed:1 ~stream:3 |] in
  match Rng.assert_independent dup with
  | () -> Alcotest.fail "duplicate streams must be rejected"
  | exception Failure msg ->
      check "names the colliding streams" true
        (String.length msg > 0
        && String.length (String.trim msg) > 20)

let test_streams_parallel_equal_sequential () =
  (* each domain draws from its own stream; results must equal the
     sequential draws from identically constructed streams *)
  let domains = 4 in
  let expected =
    Array.init domains (fun d ->
        let s = Rng.stream ~seed:99 ~stream:d in
        List.init 1000 (fun _ -> Rng.int64 s))
  in
  let got =
    Domainpool.run ~domains (fun d ->
        let s = Rng.stream ~seed:99 ~stream:d in
        List.init 1000 (fun _ -> Rng.int64 s))
  in
  for d = 0 to domains - 1 do
    check "parallel draws = sequential draws" true (expected.(d) = got.(d))
  done

(* ------------------------------------------------------------------ *)
(* Monotime (satellite: bench timing must be monotonic) *)

let test_monotime_monotone () =
  let prev = ref (Monotime.now ()) in
  for _ = 1 to 10_000 do
    let t = Monotime.now () in
    check "monotonic clock never goes backwards" true (t >= !prev);
    prev := t
  done;
  let t0 = Monotime.now () in
  check "elapsed_since non-negative" true (Monotime.elapsed_since t0 >= 0.0)

(* ------------------------------------------------------------------ *)
(* Stats.Sample percentiles: Float.compare, NaN-safe (satellite) *)

let reference_percentile xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  a.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

let qcheck_percentile_matches_reference =
  QCheck.Test.make ~name:"sample percentile matches Float.compare reference"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 60) (float_range (-1e6) 1e6))
        (pair (float_range 0.0 100.0) small_nat))
    (fun (xs, (p, nan_every)) ->
      (* inject NaNs deterministically to exercise the total order *)
      let xs =
        List.mapi (fun i x -> if nan_every > 0 && i mod (nan_every + 2) = 0 then Float.nan else x) xs
      in
      let s = Stats.Sample.create () in
      List.iter (Stats.Sample.add s) xs;
      let got = Stats.Sample.percentile s p in
      let want = reference_percentile xs p in
      (* NaN-aware equality *)
      (Float.is_nan got && Float.is_nan want) || got = want)

let qcheck_percentile_nan_safe =
  QCheck.Test.make ~name:"percentile of NaN-free sample is never NaN" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 60) (float_range (-1e6) 1e6))
    (fun xs ->
      let s = Stats.Sample.create () in
      List.iter (Stats.Sample.add s) xs;
      (not (Float.is_nan (Stats.Sample.percentile s 50.0)))
      && not (Float.is_nan (Stats.Sample.percentile s 99.0)))

(* ------------------------------------------------------------------ *)
(* CLOG: model equivalence, image format *)

let qcheck_clog_matches_model =
  QCheck.Test.make ~name:"clog status matches model; image length follows legacy growth"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 80) (pair (int_range 1 5000) bool))
    (fun ops ->
      let mgr = Txn.create_mgr () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (xid, committed) ->
          Txn.mark_recovered mgr ~xid ~committed;
          Hashtbl.replace model xid committed)
        ops;
      let statuses_ok =
        Hashtbl.fold
          (fun xid committed acc ->
            acc
            && Txn.status mgr xid
               = (if committed then Txn.Committed else Txn.Aborted))
          model true
      in
      (* legacy growth law: start 256 bytes, grow to max (2*len) (byte+1) *)
      let expected_len =
        List.fold_left
          (fun len (xid, _) ->
            let byte = xid lsr 2 in
            if byte >= len then Stdlib.max (2 * len) (byte + 1) else len)
          256 ops
      in
      let _, image = Txn.clog_image mgr in
      let roundtrip_ok =
        let mgr2 = Txn.create_mgr () in
        Txn.clog_restore mgr2 ~next_xid:(Txn.last_xid mgr + 1) ~image;
        Hashtbl.fold
          (fun xid committed acc ->
            acc
            && Txn.status mgr2 xid
               = (if committed then Txn.Committed else Txn.Aborted))
          model true
      in
      statuses_ok && String.length image = expected_len && roundtrip_ok)

(* ------------------------------------------------------------------ *)
(* Bus domain ownership *)

let test_bus_owner_assertion () =
  let bus = Bus.create () in
  Bus.subscribe bus (fun _ -> ());
  let failed =
    Domain.join
      (Domain.spawn (fun () ->
           match Bus.publish bus (Bus.Txn_commit { xid = 1 }) with
           | () -> false
           | exception Failure _ -> true))
  in
  check "cross-domain publish fails loudly" true failed

(* ------------------------------------------------------------------ *)
(* Multicore TPC-C with the checker as oracle *)

let quick_setup ~engine ~seed =
  {
    (E.default_setup ~engine ~warehouses:1) with
    E.scale_div = 300;
    duration_s = 8.0;
    seed;
    buffer_pages = 512;
    check_si = true;
  }

let test_multicore_tpcc_smoke () =
  let r = E.run_sharded ~domains:2 (quick_setup ~engine:"sias-v" ~seed:7) in
  checki "two shards" 2 (Array.length r.E.shards);
  checki "checker clean" 0 r.E.violations;
  check "work happened" true (r.E.committed > 0);
  check "every shard committed work" true
    (Array.for_all (fun o -> o.E.result.W.total_committed > 0) r.E.shards);
  check "aggregate notpm sums shards" true
    (let sum =
       Array.fold_left (fun acc o -> acc +. o.E.result.W.notpm) 0.0 r.E.shards
     in
     abs_float (sum -. r.E.agg_notpm) < 1e-6);
  check "wall window is positive" true (r.E.wall_s > 0.0)

let test_multicore_shard_equals_single_domain () =
  (* shard 0 runs the setup unchanged and shares nothing with shard 1,
     so it must reproduce the single-domain run exactly *)
  let s = quick_setup ~engine:"sias-v" ~seed:13 in
  let a = E.run_tpcc s and b = (E.run_sharded ~domains:2 s).E.shards.(0) in
  checki "same committed" a.E.result.W.total_committed b.E.result.W.total_committed;
  checki "same aborted" a.E.result.W.total_aborted b.E.result.W.total_aborted;
  Alcotest.(check (float 1e-9)) "same notpm" a.E.result.W.notpm b.E.result.W.notpm;
  Alcotest.(check (float 1e-9)) "same run write MB" a.E.run_write_mb b.E.run_write_mb;
  Alcotest.(check (float 1e-9)) "same run read MB" a.E.run_read_mb b.E.run_read_mb;
  checki "same write count" a.E.run_write_count b.E.run_write_count;
  checki "same read count" a.E.run_read_count b.E.run_read_count;
  check "same buffer stats" true (a.E.buf_stats = b.E.buf_stats)

let test_multicore_tpcc_deterministic_per_shard () =
  let s = quick_setup ~engine:"si" ~seed:21 in
  let a = E.run_sharded ~domains:2 s and b = E.run_sharded ~domains:2 s in
  Array.iteri
    (fun i (oa : E.output) ->
      let ob = b.E.shards.(i) in
      checki "same committed" oa.result.W.total_committed ob.result.W.total_committed;
      checki "same aborted" oa.result.W.total_aborted ob.result.W.total_aborted;
      Alcotest.(check (float 1e-9)) "same notpm" oa.result.W.notpm ob.result.W.notpm)
    a.E.shards;
  (* the two shards run distinct seed-derived streams, so their shard
     results should not be mirror images of each other *)
  let r0 = a.E.shards.(0).E.result and r1 = a.E.shards.(1).E.result in
  check "shards run distinct workload streams" true
    (r0.W.total_committed <> r1.W.total_committed || r0.W.notpm <> r1.W.notpm)

(* Every run flag applies per shard: the t1 bgwriter, the paged index and
   seeded faults, each shard under its own seeds. *)
let test_multicore_run_flags_per_shard () =
  let s =
    {
      (quick_setup ~engine:"sias-v" ~seed:5) with
      E.flush = E.T1;
      index = "paged";
      fault_seed = Some 11;
    }
  in
  let r = E.run_sharded ~domains:2 s in
  checki "checker clean" 0 r.E.violations;
  check "every shard committed work" true
    (Array.for_all (fun o -> o.E.result.W.total_committed > 0) r.E.shards);
  let a = r.E.shards.(0).E.setup and b = r.E.shards.(1).E.setup in
  check "shard 0 runs the setup" true (a = s);
  check "seeds differ" true (a.E.seed <> b.E.seed);
  check "fault seeds differ" true
    (b.E.fault_seed <> None && a.E.fault_seed <> b.E.fault_seed);
  check "replication seeds differ" true (a.E.repl_seed <> b.E.repl_seed);
  check "backoff seeds differ" true
    (a.E.contention.Sias_txn.Contention.seed <> b.E.contention.Sias_txn.Contention.seed)

let qcheck_multicore_torture =
  QCheck.Test.make ~name:"multicore tpcc: checker stays clean across configs"
    ~count:4
    QCheck.(pair (int_range 1 3) (int_range 0 1000))
    (fun (domains, seed) ->
      let engine = List.nth [ "si"; "sias"; "sias-v" ] (seed mod 3) in
      let s = { (quick_setup ~engine ~seed) with E.duration_s = 4.0 } in
      let r = E.run_sharded ~domains s in
      r.E.violations = 0 && Array.length r.E.shards = domains)

let suite =
  [
    Alcotest.test_case "rng: stream 0 equals create" `Quick test_stream_zero_is_create;
    Alcotest.test_case "rng: streams independent" `Quick test_streams_differ;
    Alcotest.test_case "rng: stream determinism" `Quick test_stream_determinism;
    Alcotest.test_case "rng: shared stream fails loudly" `Quick
      test_assert_independent_fails_loudly;
    Alcotest.test_case "rng: parallel draws deterministic" `Quick
      test_streams_parallel_equal_sequential;
    Alcotest.test_case "monotime: non-decreasing" `Quick test_monotime_monotone;
    QCheck_alcotest.to_alcotest qcheck_percentile_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_percentile_nan_safe;
    QCheck_alcotest.to_alcotest qcheck_clog_matches_model;
    Alcotest.test_case "bus: owner-domain assertion" `Quick test_bus_owner_assertion;
    Alcotest.test_case "tpcc: 2-domain smoke, checker clean" `Slow
      test_multicore_tpcc_smoke;
    Alcotest.test_case "tpcc: shard 0 equals the 1-domain run" `Slow
      test_multicore_shard_equals_single_domain;
    Alcotest.test_case "tpcc: per-shard determinism" `Slow
      test_multicore_tpcc_deterministic_per_shard;
    Alcotest.test_case "tpcc: run flags apply per shard, own seeds" `Slow
      test_multicore_run_flags_per_shard;
    QCheck_alcotest.to_alcotest qcheck_multicore_torture;
  ]
