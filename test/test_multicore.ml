(* Multicore substrate tests: per-domain RNG streams, monotonic timing,
   NaN-safe percentiles, the lock-free CLOG, the sharded buffer pool,
   per-domain WAL insert slots, bus domain ownership, and the sharded
   TPC-C runner with the SI checker as oracle. *)

open Sias_util
module Bus = Sias_obs.Bus
module Txn = Sias_txn.Txn
module Bufpool = Sias_storage.Bufpool
module Page = Sias_storage.Page
module Wal = Sias_wal.Wal
module Walslots = Sias_wal.Walslots
module Device = Flashsim.Device
module W = Tpcc.Tpcc_workload
module MC = Tpcc.Tpcc_multicore
module S = Tpcc.Tpcc_schema

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
(* CLOG: model equivalence, image format, lock-free readers *)

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

let test_clog_lockfree_readers () =
  (* One writer domain commits xids in ascending order; reader domains
     poll concurrently. Once a reader observes Committed for an xid, it
     must stay Committed (the log is monotone); readers must never crash
     or see a code outside the status type. *)
  let mgr = Txn.create_mgr () in
  let total = 20_000 in
  let highest_committed = Atomic.make 0 in
  let stop = Atomic.make false in
  let reader () =
    let violations = ref 0 in
    let seen_committed = Hashtbl.create 256 in
    let iter = ref 0 in
    while not (Atomic.get stop) do
      let hi = Atomic.get highest_committed in
      if hi > 0 then begin
        (* revisit a spread of xids, including ones seen committed *)
        for k = 1 to 64 do
          incr iter;
          let xid = 1 + (Hashtbl.hash (hi, k, !iter) mod hi) in
          match Txn.status mgr xid with
          | Txn.Committed -> Hashtbl.replace seen_committed xid ()
          | Txn.In_progress | Txn.Aborted ->
              if Hashtbl.mem seen_committed xid then incr violations
        done
      end
    done;
    !violations
  in
  let readers = Array.init 2 (fun _ -> Domain.spawn reader) in
  for xid = 1 to total do
    Txn.mark_recovered mgr ~xid ~committed:true;
    Atomic.set highest_committed xid
  done;
  Atomic.set stop true;
  let violations = Array.fold_left (fun acc d -> acc + Domain.join d) 0 readers in
  checki "committed verdicts are stable under concurrent readers" 0 violations;
  (* final convergence *)
  check "all committed" true (Txn.is_committed mgr total && Txn.is_committed mgr 1)

(* ------------------------------------------------------------------ *)
(* Sharded buffer pool *)

let mk_pool ?(shards = 1) ?(capacity = 64) () =
  let clock = Simclock.create () in
  let device = Device.ssd_x25e ~name:(Printf.sprintf "t-ssd-%d" shards) () in
  Bufpool.create ~device ~clock ~capacity_pages:capacity ~page_size:1024 ~shards ()

let tag_bytes tag = Bytes.of_string (Printf.sprintf "tag-%06d" tag)

let fill_page page ~tag =
  let b = tag_bytes tag in
  if Page.live_count page = 0 then ignore (Page.insert page b)
  else ignore (Page.update page 0 b)

let read_tag page =
  match Page.read page 0 with Some b -> Bytes.to_string b | None -> ""

let test_sharded_pool_single_domain_equivalence () =
  (* same deterministic workload on 1-shard and 4-shard pools: final
     durable content and hit/miss totals must agree (working set fits,
     so no eviction-order divergence between shard layouts) *)
  let run_workload pool =
    for rel = 0 to 3 do
      for block = 0 to 19 do
        Bufpool.with_page pool ~rel ~block (fun page ->
            fill_page page ~tag:((rel * 100) + block));
        Bufpool.mark_dirty pool ~rel ~block
      done
    done;
    Bufpool.flush_all pool ~sync:false;
    (* revisit to generate hits *)
    for rel = 0 to 3 do
      for block = 0 to 19 do
        Bufpool.with_page pool ~rel ~block (fun page ->
            Alcotest.(check string)
              "content" (Printf.sprintf "tag-%06d" ((rel * 100) + block))
              (read_tag page))
      done
    done;
    Bufpool.stats pool
  in
  let s1 = run_workload (mk_pool ~shards:1 ~capacity:128 ()) in
  let s4 = run_workload (mk_pool ~shards:4 ~capacity:128 ()) in
  checki "same misses" s1.Bufpool.misses s4.Bufpool.misses;
  checki "same hits" s1.Bufpool.hits s4.Bufpool.hits;
  checki "same flushes" s1.Bufpool.flushes s4.Bufpool.flushes

let test_sharded_pool_shard_count_and_args () =
  let p = mk_pool ~shards:4 () in
  checki "shard_count" 4 (Bufpool.shard_count p);
  check "rejects zero shards" true
    (match mk_pool ~shards:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "rejects more shards than frames" true
    (match mk_pool ~shards:128 ~capacity:8 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Relation 1's pages carry a second, page-sized item, so a ring buffer
   reloaded under a reader would show in its bytes. *)
let ring_item block = Bytes.make 600 (Char.chr (97 + (block mod 26)))

let test_sharded_pool_multidomain_reads () =
  (* preload pages, then hammer read-only from several domains: every
     read must see the exact image written; counters must add up.
     Relation 1 has more pages than the pool has frames, so its ring
     reads ([with_page_ro]) miss concurrently and recycle ring buffers
     while other domains still read them. *)
  let pool = mk_pool ~shards:8 ~capacity:128 () in
  let pages = 96 and ring_pages = 300 in
  for block = 0 to pages - 1 do
    Bufpool.with_page pool ~rel:0 ~block (fun page -> fill_page page ~tag:block);
    Bufpool.mark_dirty pool ~rel:0 ~block
  done;
  for block = 0 to ring_pages - 1 do
    Bufpool.with_page pool ~rel:1 ~block (fun page ->
        fill_page page ~tag:block;
        ignore (Page.insert page (ring_item block)));
    Bufpool.mark_dirty pool ~rel:1 ~block
  done;
  Bufpool.flush_all pool ~sync:false;
  let domains = 4 and rounds = 2_000 in
  let results =
    Domainpool.run ~domains (fun d ->
        let rng = Rng.stream ~seed:11 ~stream:d in
        let bad = ref 0 in
        for _ = 1 to rounds do
          let block = Rng.int rng pages in
          Bufpool.with_page pool ~rel:0 ~block (fun page ->
              if read_tag page <> Printf.sprintf "tag-%06d" block then incr bad);
          let block = Rng.int rng ring_pages in
          Bufpool.with_page_ro pool ~rel:1 ~block (fun page ->
              let before = Page.read page 1 in
              Domain.cpu_relax ();
              if
                read_tag page <> Printf.sprintf "tag-%06d" block
                || before <> Some (ring_item block)
                || Page.read page 1 <> before
              then incr bad)
        done;
        !bad)
  in
  checki "every domain read correct images" 0 (Array.fold_left ( + ) 0 results);
  let s = Bufpool.stats pool in
  check "counters account for every access" true
    (s.Bufpool.hits + s.Bufpool.misses >= (2 * domains * rounds) + pages + ring_pages)

let test_sharded_pool_multidomain_disjoint_writes () =
  (* each domain writes its own relation; all content must survive *)
  let pool = mk_pool ~shards:8 ~capacity:256 () in
  let domains = 4 and blocks = 40 in
  let _ =
    Domainpool.run ~domains (fun d ->
        for block = 0 to blocks - 1 do
          Bufpool.with_page pool ~rel:d ~block (fun page ->
              fill_page page ~tag:((d * 1000) + block));
          Bufpool.mark_dirty pool ~rel:d ~block
        done;
        0)
  in
  Bufpool.flush_all pool ~sync:false;
  for d = 0 to domains - 1 do
    for block = 0 to blocks - 1 do
      Bufpool.with_page pool ~rel:d ~block (fun page ->
          Alcotest.(check string)
            "per-domain content intact"
            (Printf.sprintf "tag-%06d" ((d * 1000) + block))
            (read_tag page))
    done
  done

(* ------------------------------------------------------------------ *)
(* WAL insert slots *)

let test_walslots_inline_order_and_grouping () =
  let slots = Walslots.create ~slots:3 () in
  let payload i = Bytes.of_string (Printf.sprintf "p%04d" i) in
  for i = 0 to 29 do
    let slot = i mod 3 in
    let kind = if i mod 5 = 4 then Wal.Commit else Wal.Insert in
    ignore (Walslots.append slots ~slot ~xid:i ~rel:slot ~kind ~payload:(payload i))
  done;
  let drained = Walslots.flush_batch slots in
  checki "one inline batch drains everything" 30 drained;
  Walslots.stop slots;
  let st = Walslots.stats slots in
  checki "all records appended" 30 st.Walslots.appended;
  checki "commits counted" 6 st.Walslots.commits;
  check "batching saved fsyncs" true (st.Walslots.commit_fsyncs < st.Walslots.commits);
  (* per-slot order preserved in the log *)
  let recs = Wal.records_from (Walslots.wal slots) ~lsn:1 in
  let per_slot = Hashtbl.create 3 in
  List.iter
    (fun (r : Wal.record) ->
      let prev = try Hashtbl.find per_slot r.Wal.rel with Not_found -> -1 in
      check "slot order preserved" true (r.Wal.xid > prev);
      Hashtbl.replace per_slot r.Wal.rel r.Wal.xid)
    recs;
  checki "log carries every record" 30 (List.length recs)

let test_walslots_multidomain () =
  let producers = 4 and per = 500 in
  let slots = Walslots.create ~slots:producers () in
  Walslots.start slots;
  let _ =
    Domainpool.run ~domains:producers (fun d ->
        let last = ref None in
        for i = 0 to per - 1 do
          last :=
            Some
              (Walslots.append slots ~slot:d ~xid:((d * per) + i) ~rel:d
                 ~kind:Wal.Commit
                 ~payload:(Bytes.of_string (Printf.sprintf "%d:%d" d i)))
        done;
        (match !last with Some tk -> Walslots.wait_durable slots tk | None -> ());
        0)
  in
  Walslots.stop slots;
  let st = Walslots.stats slots in
  checki "all commits logged" (producers * per) st.Walslots.appended;
  check "flusher batched the stream" true
    (st.Walslots.commit_fsyncs < st.Walslots.commits);
  check "grouping saved fsyncs" true (st.Walslots.fsyncs_saved > 0);
  (* per-slot order in the shared log *)
  let recs = Wal.records_from (Walslots.wal slots) ~lsn:1 in
  checki "log carries every record" (producers * per) (List.length recs);
  let per_slot = Hashtbl.create 4 in
  List.iter
    (fun (r : Wal.record) ->
      let prev = try Hashtbl.find per_slot r.Wal.rel with Not_found -> -1 in
      check "per-slot order preserved in shared log" true (r.Wal.xid > prev);
      Hashtbl.replace per_slot r.Wal.rel r.Wal.xid)
    recs

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
  check "cross-domain publish fails loudly" true failed;
  Bus.set_shared bus;
  let ok =
    Domain.join
      (Domain.spawn (fun () ->
           match Bus.publish bus (Bus.Txn_commit { xid = 2 }) with
           | () -> true
           | exception _ -> false))
  in
  check "set_shared lifts the check" true ok

(* ------------------------------------------------------------------ *)
(* Multicore TPC-C with the checker as oracle *)

let quick_mc ~engine ~domains ~seed =
  let base =
    {
      (W.default_config ~warehouses:1) with
      W.scale = S.scaled ~div:300 ();
      duration_s = 8.0;
      seed;
    }
  in
  {
    (MC.default_config ~engine ~domains ~warehouses_per_domain:1) with
    MC.base;
    buffer_pages = 512;
    check = true;
  }

let test_multicore_tpcc_smoke () =
  let r = MC.run (quick_mc ~engine:"sias-v" ~domains:2 ~seed:7) in
  checki "two shards" 2 (Array.length r.MC.shards);
  checki "checker clean" 0 r.MC.violations;
  check "work happened" true (r.MC.total_committed > 0);
  check "every shard committed work" true
    (Array.for_all (fun s -> s.MC.result.W.total_committed > 0) r.MC.shards);
  check "aggregate notpm sums shards" true
    (let sum =
       Array.fold_left (fun acc s -> acc +. s.MC.result.W.notpm) 0.0 r.MC.shards
     in
     abs_float (sum -. r.MC.agg_notpm) < 1e-6);
  check "commit stream flowed through the slots" true
    (r.MC.slots.Walslots.commits > 0);
  check "wall window is positive" true (r.MC.wall_s > 0.0)

let test_multicore_tpcc_deterministic_per_shard () =
  let a = MC.run (quick_mc ~engine:"si" ~domains:2 ~seed:21) in
  let b = MC.run (quick_mc ~engine:"si" ~domains:2 ~seed:21) in
  Array.iteri
    (fun i sa ->
      let sb = b.MC.shards.(i) in
      checki "same committed" sa.MC.result.W.total_committed
        sb.MC.result.W.total_committed;
      checki "same aborted" sa.MC.result.W.total_aborted
        sb.MC.result.W.total_aborted;
      Alcotest.(check (float 1e-9))
        "same notpm" sa.MC.result.W.notpm sb.MC.result.W.notpm)
    a.MC.shards;
  (* the two shards run distinct seed-derived streams, so their shard
     results should not be mirror images of each other *)
  check "shards run distinct workload streams" true
    (a.MC.shards.(0).MC.result.W.total_committed
     <> a.MC.shards.(1).MC.result.W.total_committed
    || a.MC.shards.(0).MC.result.W.notpm <> a.MC.shards.(1).MC.result.W.notpm)

let qcheck_multicore_torture =
  QCheck.Test.make ~name:"multicore tpcc: checker stays clean across configs"
    ~count:4
    QCheck.(pair (int_range 1 3) (int_range 0 1000))
    (fun (domains, seed) ->
      let engine = List.nth [ "si"; "sias"; "sias-v" ] (seed mod 3) in
      let cfg = quick_mc ~engine ~domains ~seed in
      let cfg = { cfg with MC.base = { cfg.MC.base with W.duration_s = 4.0 } } in
      let r = MC.run cfg in
      r.MC.violations = 0 && Array.length r.MC.shards = domains)

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
    Alcotest.test_case "clog: lock-free readers see monotone log" `Quick
      test_clog_lockfree_readers;
    Alcotest.test_case "bufpool: shards=4 equals shards=1 single-domain" `Quick
      test_sharded_pool_single_domain_equivalence;
    Alcotest.test_case "bufpool: shard arg validation" `Quick
      test_sharded_pool_shard_count_and_args;
    Alcotest.test_case "bufpool: multi-domain reads" `Quick
      test_sharded_pool_multidomain_reads;
    Alcotest.test_case "bufpool: multi-domain disjoint writes" `Quick
      test_sharded_pool_multidomain_disjoint_writes;
    Alcotest.test_case "walslots: inline order + grouping" `Quick
      test_walslots_inline_order_and_grouping;
    Alcotest.test_case "walslots: multi-domain producers" `Quick
      test_walslots_multidomain;
    Alcotest.test_case "bus: owner-domain assertion" `Quick test_bus_owner_assertion;
    Alcotest.test_case "tpcc: 2-domain smoke, checker clean" `Slow
      test_multicore_tpcc_smoke;
    Alcotest.test_case "tpcc: per-shard determinism" `Slow
      test_multicore_tpcc_deterministic_per_shard;
    QCheck_alcotest.to_alcotest qcheck_multicore_torture;
  ]
