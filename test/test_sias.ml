(* White-box tests for SIAS internals: chain structure, VID_map
   entrypoints, append-only write pattern, index-update avoidance, and the
   SI-vs-SIAS storage contrast the paper is built on. *)

module E = Mvcc.Sias_engine
module Si = Mvcc.Si_engine
module Value = Mvcc.Value
module Db = Mvcc.Db
module Vm = Vidmap
module Bufpool = Sias_storage.Bufpool
module Btree = Sias_index.Btree
module Device = Flashsim.Device
module Blocktrace = Flashsim.Blocktrace

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let row k v = [| Value.Int k; Value.Int v; Value.Str "payload-data" |]

let fresh () =
  let db = Db.create ~buffer_pages:512 () in
  let eng = E.create db in
  let table = E.create_table eng ~name:"t" ~pk_col:0 ~secondary:[ 1 ] () in
  (eng, table, db)

let commit_one eng f =
  let txn = E.begin_txn eng in
  f txn;
  E.commit eng txn |> Result.get_ok

let set_v v r =
  let r = Array.copy r in
  r.(1) <- Value.Int v;
  r

let test_vidmap_entrypoint_moves () =
  let eng, table, _ = fresh () in
  let vm = E.table_vidmap eng table in
  commit_one eng (fun txn -> E.insert eng txn table (row 1 10) |> Result.get_ok);
  let e0 = Vm.get vm ~vid:0 in
  check "entrypoint set" true (e0 <> None);
  commit_one eng (fun txn -> E.update eng txn table ~pk:1 (set_v 20) |> Result.get_ok);
  let e1 = Vm.get vm ~vid:0 in
  check "entrypoint moved to new version" true (e1 <> e0 && e1 <> None)

let test_chain_walk_depth () =
  let eng, table, _ = fresh () in
  commit_one eng (fun txn -> E.insert eng txn table (row 1 0) |> Result.get_ok);
  (* hold an old snapshot so pruning cannot collapse the chain *)
  let old_reader = E.begin_txn eng in
  for i = 1 to 5 do
    commit_one eng (fun txn -> E.update eng txn table ~pk:1 (set_v i) |> Result.get_ok)
  done;
  let w0, v0 = E.chain_walk_stats eng in
  (* the old snapshot must walk the chain down to the initial version *)
  (match E.read eng old_reader table ~pk:1 with
  | Some r -> checki "old snapshot sees initial version" 0 (Value.int r.(1))
  | None -> Alcotest.fail "old version lost");
  let w1, v1 = E.chain_walk_stats eng in
  check "walk happened" true (w1 > w0);
  check "walked several versions deep" true (v1 - v0 >= 6);
  E.commit eng old_reader |> Result.get_ok

let test_append_only_writes () =
  let eng, table, db = fresh () in
  commit_one eng (fun txn ->
      for k = 1 to 100 do
        E.insert eng txn table (row k k) |> Result.get_ok
      done);
  for round = 1 to 5 do
    commit_one eng (fun txn ->
        for k = 1 to 100 do
          E.update eng txn table ~pk:k (set_v (k + round)) |> Result.get_ok
        done)
  done;
  (* flush everything and inspect the device trace: heap writes must be
     monotonically increasing within the heap relation (pure appends) *)
  Bufpool.flush_all db.Db.pool ~sync:false;
  let heap_base = Bufpool.sector_of db.Db.pool ~rel:0 ~block:0 in
  let heap_limit = Bufpool.sector_of db.Db.pool ~rel:1 ~block:0 in
  let recs = Blocktrace.records (Device.trace db.Db.device) in
  let heap_writes =
    List.filter
      (fun r ->
        r.Blocktrace.op = Blocktrace.Write
        && r.Blocktrace.sector >= heap_base
        && r.Blocktrace.sector < heap_limit)
      recs
  in
  check "heap writes exist" true (heap_writes <> []);
  let sectors = List.map (fun r -> r.Blocktrace.sector) heap_writes in
  let sorted = List.sort compare sectors in
  check "append-only: flushed in increasing order" true (sectors = sorted)

let test_si_writes_scatter_sias_writes_do_not () =
  (* identical workload on both engines; SI must rewrite old pages
     (in-place invalidation), SIAS must not *)
  let run_si () =
    let db = Db.create ~buffer_pages:512 () in
    let eng = Si.create db in
    let table = Si.create_table eng ~name:"t" ~pk_col:0 () in
    let txn = Si.begin_txn eng in
    for k = 1 to 200 do
      Si.insert eng txn table (row k k) |> Result.get_ok
    done;
    Si.commit eng txn |> Result.get_ok;
    Bufpool.flush_all db.Db.pool ~sync:false;
    let before = Blocktrace.write_count (Device.trace db.Db.device) in
    let txn = Si.begin_txn eng in
    for k = 1 to 200 do
      Si.update eng txn table ~pk:k (set_v (k + 1)) |> Result.get_ok
    done;
    Si.commit eng txn |> Result.get_ok;
    Bufpool.flush_all db.Db.pool ~sync:false;
    Blocktrace.write_count (Device.trace db.Db.device) - before
  in
  let run_sias () =
    let db = Db.create ~buffer_pages:512 () in
    let eng = E.create db in
    let table = E.create_table eng ~name:"t" ~pk_col:0 () in
    let txn = E.begin_txn eng in
    for k = 1 to 200 do
      E.insert eng txn table (row k k) |> Result.get_ok
    done;
    E.commit eng txn |> Result.get_ok;
    Bufpool.flush_all db.Db.pool ~sync:false;
    let before = Blocktrace.write_count (Device.trace db.Db.device) in
    let txn = E.begin_txn eng in
    for k = 1 to 200 do
      E.update eng txn table ~pk:k (set_v (k + 1)) |> Result.get_ok
    done;
    E.commit eng txn |> Result.get_ok;
    Bufpool.flush_all db.Db.pool ~sync:false;
    Blocktrace.write_count (Device.trace db.Db.device) - before
  in
  let si_writes = run_si () and sias_writes = run_sias () in
  check
    (Printf.sprintf "SIAS writes fewer pages (SI=%d, SIAS=%d)" si_writes sias_writes)
    true
    (sias_writes < si_writes)

let test_index_not_touched_when_key_unchanged () =
  let eng, table, _ = fresh () in
  commit_one eng (fun txn ->
      for k = 1 to 50 do
        E.insert eng txn table (row k 7) |> Result.get_ok
      done);
  (* updates that keep column 1 (the indexed key) unchanged *)
  for _ = 1 to 3 do
    commit_one eng (fun txn ->
        for k = 1 to 50 do
          E.update eng txn table ~pk:k (fun r ->
              let r = Array.copy r in
              r.(2) <- Value.Str "new-payload";
              r)
          |> Result.get_ok
        done)
  done;
  (* the lookup still finds all 50, exactly once each *)
  commit_one eng (fun txn ->
      checki "one row per item via index" 50
        (List.length (E.lookup eng txn table ~col:1 ~key:7)))

let test_tombstone_chain () =
  let eng, table, _ = fresh () in
  let vm = E.table_vidmap eng table in
  commit_one eng (fun txn -> E.insert eng txn table (row 1 1) |> Result.get_ok);
  commit_one eng (fun txn -> E.delete eng txn table ~pk:1 |> Result.get_ok);
  (* tombstone is the entrypoint; the item reads as absent *)
  check "entrypoint still set (tombstone)" true (Vm.get vm ~vid:0 <> None);
  commit_one eng (fun txn -> check "read gone" true (E.read eng txn table ~pk:1 = None));
  (* gc with no old snapshots reclaims the whole chain *)
  E.gc eng;
  check "vidmap cleared after gc" true (Vm.get vm ~vid:0 = None)

let test_gc_prunes_dead_tail () =
  let eng, table, _ = fresh () in
  commit_one eng (fun txn -> E.insert eng txn table (row 1 0) |> Result.get_ok);
  for i = 1 to 20 do
    commit_one eng (fun txn -> E.update eng txn table ~pk:1 (set_v i) |> Result.get_ok)
  done;
  let before = E.table_stats eng table in
  checki "21 versions before gc" 21 before.Mvcc.Engine.total_versions;
  E.gc eng;
  let after = E.table_stats eng table in
  checki "only newest version survives" 1 after.Mvcc.Engine.total_versions;
  let gs = E.gc_stats eng in
  checki "20 pruned" 20 gs.E.pruned_versions;
  commit_one eng (fun txn ->
      match E.read eng txn table ~pk:1 with
      | Some r -> checki "value intact" 20 (Value.int r.(1))
      | None -> Alcotest.fail "lost row")

let test_gc_page_reclaim_relocates () =
  let eng, table, db = fresh () in
  (* create many items, update them all repeatedly so early pages decay *)
  commit_one eng (fun txn ->
      for k = 1 to 300 do
        E.insert eng txn table (row k 0) |> Result.get_ok
      done);
  for i = 1 to 3 do
    commit_one eng (fun txn ->
        for k = 1 to 300 do
          E.update eng txn table ~pk:k (set_v i) |> Result.get_ok
        done)
  done;
  (* seal the pages: reclamation only discards pages already on stable
     storage (unsealed pages are cleaned by cheap dead-slot marking) *)
  Bufpool.flush_all db.Db.pool ~sync:false;
  E.gc eng;
  let gs = E.gc_stats eng in
  check "pages reclaimed" true (gs.E.reclaimed_pages > 0);
  (* all data still correct after relocation *)
  commit_one eng (fun txn ->
      let n = E.scan eng txn table (fun r -> checki "value" 3 (Value.int r.(1))) in
      checki "all rows visible" 300 n)

let test_scan_vidmap_equals_traditional () =
  let eng, table, _ = fresh () in
  commit_one eng (fun txn ->
      for k = 1 to 100 do
        E.insert eng txn table (row k (k * 2)) |> Result.get_ok
      done);
  commit_one eng (fun txn ->
      for k = 1 to 50 do
        E.update eng txn table ~pk:k (set_v (k * 3)) |> Result.get_ok
      done;
      E.delete eng txn table ~pk:99 |> Result.get_ok);
  let txn = E.begin_txn eng in
  let collect scan =
    let acc = ref [] in
    let n = scan eng txn table (fun r -> acc := (Value.int r.(0), Value.int r.(1)) :: !acc) in
    (n, List.sort compare !acc)
  in
  let n1, rows1 = collect E.scan in
  let n2, rows2 = collect E.scan_traditional in
  E.commit eng txn |> Result.get_ok;
  checki "same count" n1 n2;
  check "same rows" true (rows1 = rows2);
  checki "99 rows" 99 n1

let test_sias_vidmap_rebuild_equals () =
  (* the paper: all information needed for reconstruction is on-tuple *)
  let eng, table, db = fresh () in
  commit_one eng (fun txn ->
      for k = 1 to 60 do
        E.insert eng txn table (row k k) |> Result.get_ok
      done);
  commit_one eng (fun txn ->
      for k = 1 to 30 do
        E.update eng txn table ~pk:k (set_v (k + 100)) |> Result.get_ok
      done);
  let vm = E.table_vidmap eng table in
  let original = ref [] in
  Vm.iter vm (fun vid tid -> original := (vid, tid) :: !original);
  (* crash and recover: vidmap is rebuilt from tuple versions only *)
  Bufpool.flush_all db.Db.pool ~sync:false;
  Bufpool.drop_cache db.Db.pool;
  E.recover eng;
  let vm' = E.table_vidmap eng table in
  let rebuilt = ref [] in
  Vm.iter vm' (fun vid tid -> rebuilt := (vid, tid) :: !rebuilt);
  check "rebuilt vidmap equals original" true
    (List.sort compare !original = List.sort compare !rebuilt)

let suite =
  [
    Alcotest.test_case "vidmap entrypoint moves on update" `Quick test_vidmap_entrypoint_moves;
    Alcotest.test_case "chain walk depth for old snapshots" `Quick test_chain_walk_depth;
    Alcotest.test_case "append-only write pattern" `Quick test_append_only_writes;
    Alcotest.test_case "SIAS writes fewer pages than SI" `Quick
      test_si_writes_scatter_sias_writes_do_not;
    Alcotest.test_case "index untouched when key unchanged" `Quick
      test_index_not_touched_when_key_unchanged;
    Alcotest.test_case "tombstone chain" `Quick test_tombstone_chain;
    Alcotest.test_case "gc prunes dead tail" `Quick test_gc_prunes_dead_tail;
    Alcotest.test_case "gc page reclaim relocates" `Quick test_gc_page_reclaim_relocates;
    Alcotest.test_case "vidmap scan equals traditional scan" `Quick
      test_scan_vidmap_equals_traditional;
    Alcotest.test_case "vidmap rebuild from tuples" `Quick test_sias_vidmap_rebuild_equals;
  ]

(* Property: structural invariants hold after arbitrary committed op
   sequences with interleaved GC, crashes and recovery, on either SIAS
   store (the engine is one more generated input). *)
module type CHECKED = sig
  include Mvcc.Engine.S

  val check_invariants : t -> table -> unit
end

let qcheck_invariants =
  QCheck.Test.make ~name:"SIAS invariants under random ops + gc + recovery" ~count:60
    QCheck.(
      pair
        (make ~print:fst
           Gen.(oneofl [ ("sias", (module E : CHECKED)); ("sias-v", (module Mvcc.Sias_vector)) ]))
        (list_of_size Gen.(int_range 5 120)
           (pair (int_range 1 25) (pair (int_bound 500) (int_bound 5)))))
    (fun ((_, (module X : CHECKED)), ops) ->
      let db = Db.create ~buffer_pages:512 () in
      let eng = X.create db in
      let table = X.create_table eng ~name:"t" ~pk_col:0 ~secondary:[ 1 ] () in
      let commit_one f =
        let txn = X.begin_txn eng in
        f txn;
        X.commit eng txn |> Result.get_ok
      in
      List.iter
        (fun (k, (v, op)) ->
          (match op with
          | 0 | 1 -> commit_one (fun txn -> ignore (X.insert eng txn table (row k v)))
          | 2 | 3 -> commit_one (fun txn -> ignore (X.update eng txn table ~pk:k (set_v v)))
          | 4 -> commit_one (fun txn -> ignore (X.delete eng txn table ~pk:k))
          | _ -> X.gc eng);
          X.check_invariants eng table)
        ops;
      (* invariants must also survive a crash/recovery cycle *)
      Bufpool.flush_all db.Db.pool ~sync:false;
      Bufpool.drop_cache db.Db.pool;
      X.recover eng;
      X.check_invariants eng table;
      true)

let suite = suite @ [ QCheck_alcotest.to_alcotest qcheck_invariants ]
