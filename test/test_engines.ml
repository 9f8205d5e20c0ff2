(* Black-box MVCC contract tests, run identically against the SI baseline
   and the SIAS engines through the common Engine.S signature. *)

module Value = Mvcc.Value
module Db = Mvcc.Db
module Engine = Mvcc.Engine
module Bufpool = Sias_storage.Bufpool

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let row k v extra = [| Value.Int k; Value.Int v; Value.Str extra |]

let geti (r : Value.t array) i = Value.int r.(i)

module Make (E : Engine.S) = struct
  let fresh ?(buffer_pages = 512) () =
    let db = Db.create ~buffer_pages () in
    let eng = E.create db in
    let table = E.create_table eng ~name:"t" ~pk_col:0 ~secondary:[ 1 ] () in
    (eng, table)

  let with_txn eng f =
    let txn = E.begin_txn eng in
    let r = f txn in
    E.commit eng txn |> Result.get_ok;
    r

  let put eng table txn k v = E.insert eng txn table (row k v "pad") |> Result.get_ok

  let test_insert_read_commit () =
    let eng, table = fresh () in
    with_txn eng (fun txn -> put eng table txn 1 100);
    with_txn eng (fun txn ->
        match E.read eng txn table ~pk:1 with
        | Some r -> checki "value" 100 (geti r 1)
        | None -> Alcotest.fail "row missing")

  let test_read_own_writes () =
    let eng, table = fresh () in
    let txn = E.begin_txn eng in
    put eng table txn 1 100;
    (match E.read eng txn table ~pk:1 with
    | Some r -> checki "own insert visible" 100 (geti r 1)
    | None -> Alcotest.fail "own write invisible");
    E.update eng txn table ~pk:1 (fun r ->
        let r = Array.copy r in
        r.(1) <- Value.Int 200;
        r)
    |> Result.get_ok;
    (match E.read eng txn table ~pk:1 with
    | Some r -> checki "own update visible" 200 (geti r 1)
    | None -> Alcotest.fail "own update invisible");
    E.commit eng txn |> Result.get_ok

  let test_uncommitted_invisible () =
    let eng, table = fresh () in
    let writer = E.begin_txn eng in
    put eng table writer 1 100;
    let reader = E.begin_txn eng in
    check "uncommitted invisible" true (E.read eng reader table ~pk:1 = None);
    E.commit eng writer |> Result.get_ok;
    (* reader's snapshot predates the commit *)
    check "still invisible to old snapshot" true (E.read eng reader table ~pk:1 = None);
    E.commit eng reader |> Result.get_ok;
    with_txn eng (fun txn -> check "visible to new txn" true (E.read eng txn table ~pk:1 <> None))

  let test_snapshot_stability () =
    let eng, table = fresh () in
    with_txn eng (fun txn -> put eng table txn 1 100);
    let reader = E.begin_txn eng in
    (match E.read eng reader table ~pk:1 with
    | Some r -> checki "sees 100" 100 (geti r 1)
    | None -> Alcotest.fail "missing");
    (* another txn updates and commits *)
    with_txn eng (fun txn ->
        E.update eng txn table ~pk:1 (fun r ->
            let r = Array.copy r in
            r.(1) <- Value.Int 200;
            r)
        |> Result.get_ok);
    (* the old snapshot must keep seeing the old version: time travel *)
    (match E.read eng reader table ~pk:1 with
    | Some r -> checki "still sees 100" 100 (geti r 1)
    | None -> Alcotest.fail "old version vanished");
    E.commit eng reader |> Result.get_ok;
    with_txn eng (fun txn ->
        match E.read eng txn table ~pk:1 with
        | Some r -> checki "new txn sees 200" 200 (geti r 1)
        | None -> Alcotest.fail "missing")

  let test_duplicate_key () =
    let eng, table = fresh () in
    with_txn eng (fun txn -> put eng table txn 1 100);
    let txn = E.begin_txn eng in
    check "duplicate rejected" true
      (E.insert eng txn table (row 1 999 "x") = Error Engine.Duplicate_key);
    E.abort eng txn

  let test_update_missing () =
    let eng, table = fresh () in
    let txn = E.begin_txn eng in
    check "not found" true
      (E.update eng txn table ~pk:42 (fun r -> r) = Error Engine.Not_found);
    E.abort eng txn

  let test_delete_semantics () =
    let eng, table = fresh () in
    with_txn eng (fun txn -> put eng table txn 1 100);
    let old_reader = E.begin_txn eng in
    with_txn eng (fun txn -> E.delete eng txn table ~pk:1 |> Result.get_ok);
    (* deleted for new snapshots, still there for the old one *)
    with_txn eng (fun txn -> check "gone" true (E.read eng txn table ~pk:1 = None));
    check "old snapshot still sees it" true (E.read eng old_reader table ~pk:1 <> None);
    E.commit eng old_reader |> Result.get_ok;
    (* reinsert after delete works *)
    with_txn eng (fun txn -> put eng table txn 1 500);
    with_txn eng (fun txn ->
        match E.read eng txn table ~pk:1 with
        | Some r -> checki "reinserted" 500 (geti r 1)
        | None -> Alcotest.fail "reinsert missing")

  let test_abort_rolls_back () =
    let eng, table = fresh () in
    with_txn eng (fun txn -> put eng table txn 1 100);
    let txn = E.begin_txn eng in
    put eng table txn 2 200;
    E.update eng txn table ~pk:1 (fun r ->
        let r = Array.copy r in
        r.(1) <- Value.Int 999;
        r)
    |> Result.get_ok;
    E.abort eng txn;
    with_txn eng (fun t ->
        check "aborted insert gone" true (E.read eng t table ~pk:2 = None);
        match E.read eng t table ~pk:1 with
        | Some r -> checki "aborted update undone" 100 (geti r 1)
        | None -> Alcotest.fail "row vanished")

  let test_update_after_abort () =
    let eng, table = fresh () in
    with_txn eng (fun txn -> put eng table txn 1 100);
    let t1 = E.begin_txn eng in
    E.update eng t1 table ~pk:1 (fun r ->
        let r = Array.copy r in
        r.(1) <- Value.Int 111;
        r)
    |> Result.get_ok;
    E.abort eng t1;
    (* after the aborter releases, another txn can update *)
    with_txn eng (fun t2 ->
        check "update after abort ok" true
          (E.update eng t2 table ~pk:1 (fun r ->
               let r = Array.copy r in
               r.(1) <- Value.Int 222;
               r)
          = Ok ()));
    with_txn eng (fun t ->
        match E.read eng t table ~pk:1 with
        | Some r -> checki "final value" 222 (geti r 1)
        | None -> Alcotest.fail "missing")

  let test_first_updater_wins_active () =
    let eng, table = fresh () in
    with_txn eng (fun txn -> put eng table txn 1 100);
    let t1 = E.begin_txn eng in
    let t2 = E.begin_txn eng in
    E.update eng t1 table ~pk:1 (fun r -> r) |> Result.get_ok;
    (* t1 still running: t2 must not update the same item *)
    check "concurrent update conflicts" true
      (E.update eng t2 table ~pk:1 (fun r -> r) = Error Engine.Write_conflict);
    E.commit eng t1 |> Result.get_ok;
    (* t1 committed after t2's snapshot: still a conflict (lost update) *)
    check "lost update prevented" true
      (E.update eng t2 table ~pk:1 (fun r -> r) = Error Engine.Write_conflict);
    E.abort eng t2

  let test_scan_counts () =
    let eng, table = fresh () in
    with_txn eng (fun txn ->
        for k = 1 to 20 do
          put eng table txn k (k * 10)
        done);
    with_txn eng (fun txn ->
        for k = 1 to 5 do
          E.update eng txn table ~pk:k (fun r -> r) |> Result.get_ok
        done;
        E.delete eng txn table ~pk:20 |> Result.get_ok);
    with_txn eng (fun txn ->
        let sum = ref 0 in
        let n = E.scan eng txn table (fun r -> sum := !sum + geti r 1) in
        checki "19 visible rows" 19 n;
        checki "one version per item"
          (List.init 19 (fun i -> (i + 1) * 10) |> List.fold_left ( + ) 0)
          !sum)

  let test_secondary_lookup () =
    let eng, table = fresh () in
    with_txn eng (fun txn ->
        put eng table txn 1 7;
        put eng table txn 2 7;
        put eng table txn 3 8);
    with_txn eng (fun txn ->
        checki "two rows with value 7" 2 (List.length (E.lookup eng txn table ~col:1 ~key:7));
        checki "one row with value 8" 1 (List.length (E.lookup eng txn table ~col:1 ~key:8));
        checki "none with 9" 0 (List.length (E.lookup eng txn table ~col:1 ~key:9)))

  let test_lookup_unindexed_column () =
    let eng, table = fresh () in
    with_txn eng (fun txn ->
        put eng table txn 1 7;
        match E.lookup eng txn table ~col:2 ~key:7 with
        | _ -> Alcotest.fail "lookup on an unindexed column returned"
        | exception Invalid_argument msg ->
            check ("message names " ^ E.name ^ ": " ^ msg) true
              (String.starts_with ~prefix:(E.name ^ ".") msg))

  let test_secondary_after_key_update () =
    let eng, table = fresh () in
    with_txn eng (fun txn -> put eng table txn 1 7);
    with_txn eng (fun txn ->
        E.update eng txn table ~pk:1 (fun r ->
            let r = Array.copy r in
            r.(1) <- Value.Int 9;
            r)
        |> Result.get_ok);
    with_txn eng (fun txn ->
        checki "old key no longer matches" 0 (List.length (E.lookup eng txn table ~col:1 ~key:7));
        checki "new key matches" 1 (List.length (E.lookup eng txn table ~col:1 ~key:9)))

  let test_range_pk () =
    let eng, table = fresh () in
    with_txn eng (fun txn ->
        for k = 1 to 30 do
          put eng table txn k k
        done);
    with_txn eng (fun txn ->
        let rows = E.range_pk eng txn table ~lo:10 ~hi:15 in
        checki "six rows" 6 (List.length rows);
        check "right keys" true
          (List.map (fun r -> geti r 0) rows |> List.sort compare = [ 10; 11; 12; 13; 14; 15 ]))

  let test_many_versions_then_gc () =
    let eng, table = fresh () in
    with_txn eng (fun txn -> put eng table txn 1 0);
    for i = 1 to 50 do
      with_txn eng (fun txn ->
          E.update eng txn table ~pk:1 (fun r ->
              let r = Array.copy r in
              r.(1) <- Value.Int i;
              r)
          |> Result.get_ok)
    done;
    let stats_before = E.table_stats eng table in
    check "versions accumulated" true (stats_before.Engine.total_versions > 10);
    E.gc eng;
    let stats_after = E.table_stats eng table in
    check "gc removed versions" true
      (stats_after.Engine.total_versions < stats_before.Engine.total_versions);
    with_txn eng (fun txn ->
        match E.read eng txn table ~pk:1 with
        | Some r -> checki "latest survives gc" 50 (geti r 1)
        | None -> Alcotest.fail "row lost by gc")

  let test_gc_respects_old_snapshot () =
    let eng, table = fresh () in
    with_txn eng (fun txn -> put eng table txn 1 100);
    let old_reader = E.begin_txn eng in
    with_txn eng (fun txn ->
        E.update eng txn table ~pk:1 (fun r ->
            let r = Array.copy r in
            r.(1) <- Value.Int 200;
            r)
        |> Result.get_ok);
    E.gc eng;
    (* the old version is protected by old_reader's snapshot *)
    (match E.read eng old_reader table ~pk:1 with
    | Some r -> checki "old version survives gc" 100 (geti r 1)
    | None -> Alcotest.fail "gc destroyed a visible version");
    E.commit eng old_reader |> Result.get_ok

  let test_crash_recovery_committed_survive () =
    let eng, table = fresh () in
    let db = E.db eng in
    with_txn eng (fun txn ->
        for k = 1 to 10 do
          put eng table txn k (k * 11)
        done);
    (* checkpoint half of the state, then keep writing *)
    Bufpool.flush_all db.Db.pool ~sync:false;
    with_txn eng (fun txn ->
        for k = 11 to 20 do
          put eng table txn k (k * 11)
        done;
        E.update eng txn table ~pk:1 (fun r ->
            let r = Array.copy r in
            r.(1) <- Value.Int 999;
            r)
        |> Result.get_ok);
    (* crash: all unflushed buffers vanish *)
    Bufpool.drop_cache db.Db.pool;
    E.recover eng;
    with_txn eng (fun txn ->
        let n = E.scan eng txn table (fun _ -> ()) in
        checki "all 20 rows recovered" 20 n;
        (match E.read eng txn table ~pk:1 with
        | Some r -> checki "update recovered" 999 (geti r 1)
        | None -> Alcotest.fail "row 1 missing");
        match E.read eng txn table ~pk:15 with
        | Some r -> checki "post-checkpoint insert recovered" 165 (geti r 1)
        | None -> Alcotest.fail "row 15 missing")

  let test_crash_recovery_uncommitted_lost () =
    let eng, table = fresh () in
    let db = E.db eng in
    with_txn eng (fun txn -> put eng table txn 1 100);
    (* a transaction that never commits *)
    let t = E.begin_txn eng in
    put eng table t 2 200;
    E.update eng t table ~pk:1 (fun r ->
        let r = Array.copy r in
        r.(1) <- Value.Int 999;
        r)
    |> Result.get_ok;
    (* crash before commit *)
    Bufpool.drop_cache db.Db.pool;
    E.recover eng;
    with_txn eng (fun txn ->
        check "uncommitted insert lost" true (E.read eng txn table ~pk:2 = None);
        match E.read eng txn table ~pk:1 with
        | Some r -> checki "uncommitted update rolled back" 100 (geti r 1)
        | None -> Alcotest.fail "row 1 missing")

  (* Property: engine agrees with a model map under random committed
     single-op transactions. *)
  let qcheck_engine_model =
    QCheck.Test.make
      ~name:(E.name ^ ": random committed ops equal model")
      ~count:25
      QCheck.(
        list_of_size
          Gen.(int_range 1 120)
          (pair (int_range 1 25) (pair (int_bound 1000) (int_bound 3))))
      (fun ops ->
        let eng, table = fresh () in
        let model = Hashtbl.create 32 in
        List.iter
          (fun (k, (v, op)) ->
            let txn = E.begin_txn eng in
            (match op with
            | 0 | 1 -> (
                match E.insert eng txn table (row k v "p") with
                | Ok () -> Hashtbl.replace model k v
                | Error _ -> ())
            | 2 -> (
                match
                  E.update eng txn table ~pk:k (fun r ->
                      let r = Array.copy r in
                      r.(1) <- Value.Int v;
                      r)
                with
                | Ok () -> Hashtbl.replace model k v
                | Error _ -> ())
            | _ -> (
                match E.delete eng txn table ~pk:k with
                | Ok () -> Hashtbl.remove model k
                | Error _ -> ()));
            E.commit eng txn |> Result.get_ok)
          ops;
        let txn = E.begin_txn eng in
        let ok = ref true in
        for k = 1 to 25 do
          let expect = Hashtbl.find_opt model k in
          let got = Option.map (fun r -> geti r 1) (E.read eng txn table ~pk:k) in
          if got <> expect then ok := false
        done;
        let visible = E.scan eng txn table (fun _ -> ()) in
        E.commit eng txn |> Result.get_ok;
        !ok && visible = Hashtbl.length model)

  let suite =
    [
      Alcotest.test_case "insert/read across txns" `Quick test_insert_read_commit;
      Alcotest.test_case "read own writes" `Quick test_read_own_writes;
      Alcotest.test_case "uncommitted invisible" `Quick test_uncommitted_invisible;
      Alcotest.test_case "snapshot stability (time travel)" `Quick test_snapshot_stability;
      Alcotest.test_case "duplicate key" `Quick test_duplicate_key;
      Alcotest.test_case "update missing" `Quick test_update_missing;
      Alcotest.test_case "delete semantics" `Quick test_delete_semantics;
      Alcotest.test_case "abort rolls back" `Quick test_abort_rolls_back;
      Alcotest.test_case "update after abort" `Quick test_update_after_abort;
      Alcotest.test_case "first-updater-wins" `Quick test_first_updater_wins_active;
      Alcotest.test_case "scan counts" `Quick test_scan_counts;
      Alcotest.test_case "secondary lookup" `Quick test_secondary_lookup;
      Alcotest.test_case "lookup on unindexed column" `Quick test_lookup_unindexed_column;
      Alcotest.test_case "secondary after key update" `Quick test_secondary_after_key_update;
      Alcotest.test_case "range over pk" `Quick test_range_pk;
      Alcotest.test_case "version chain + gc" `Quick test_many_versions_then_gc;
      Alcotest.test_case "gc respects old snapshots" `Quick test_gc_respects_old_snapshot;
      Alcotest.test_case "crash recovery: committed survive" `Quick
        test_crash_recovery_committed_survive;
      Alcotest.test_case "crash recovery: uncommitted lost" `Quick
        test_crash_recovery_uncommitted_lost;
      QCheck_alcotest.to_alcotest qcheck_engine_model;
    ]
end

module Si_suite = Make (Mvcc.Si_engine)
module Sias_suite = Make (Mvcc.Sias_engine)
module Sias_v_suite = Make (Mvcc.Sias_vector)
module Si_cv_suite = Make (Mvcc.Si_cv_engine)
