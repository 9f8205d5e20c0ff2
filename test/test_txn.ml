(* Tests for snapshots, the transaction manager and the lock manager. *)

open Sias_txn

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_snapshot_sees () =
  (* snapshot of xid 5, with 2 and 4 still running *)
  let s = Snapshot.make ~xid:5 ~xmax:4 ~concurrent:[ 2; 4 ] in
  check "own xid" true (Snapshot.sees_xid s 5);
  check "committed older" true (Snapshot.sees_xid s 1);
  check "concurrent invisible" false (Snapshot.sees_xid s 2);
  check "concurrent invisible" false (Snapshot.sees_xid s 4);
  check "visible non-concurrent" true (Snapshot.sees_xid s 3);
  check "future invisible" false (Snapshot.sees_xid s 6);
  check "is_concurrent" true (Snapshot.is_concurrent s 2);
  check "not concurrent" false (Snapshot.is_concurrent s 3)

let test_txn_lifecycle () =
  let mgr = Txn.create_mgr () in
  let t1 = Txn.begin_txn mgr in
  checki "first xid" 1 t1.Txn.xid;
  check "in progress" true (Txn.status mgr 1 = Txn.In_progress);
  Txn.commit mgr t1;
  check "committed" true (Txn.is_committed mgr 1);
  let t2 = Txn.begin_txn mgr in
  Txn.abort mgr t2;
  check "aborted" true (Txn.status mgr 2 = Txn.Aborted);
  Alcotest.check_raises "double finish" (Invalid_argument "Txn: transaction is not in progress")
    (fun () -> Txn.commit mgr t2)

let test_txn_concurrent_sets () =
  let mgr = Txn.create_mgr () in
  let t1 = Txn.begin_txn mgr in
  let t2 = Txn.begin_txn mgr in
  (* t2 started while t1 ran *)
  check "t2 sees t1 as concurrent" true (Snapshot.is_concurrent t2.Txn.snapshot t1.Txn.xid);
  Txn.commit mgr t1;
  let t3 = Txn.begin_txn mgr in
  check "t3 does not see t1 concurrent" false (Snapshot.is_concurrent t3.Txn.snapshot t1.Txn.xid);
  check "t3 sees t2 concurrent" true (Snapshot.is_concurrent t3.Txn.snapshot t2.Txn.xid);
  Txn.commit mgr t2;
  Txn.commit mgr t3

let test_visibility_predicate () =
  let mgr = Txn.create_mgr () in
  let t1 = Txn.begin_txn mgr in
  Txn.commit mgr t1;
  let t2 = Txn.begin_txn mgr in
  (* own writes and committed-before are visible *)
  check "committed visible" true (Txn.visible mgr t2.Txn.snapshot t1.Txn.xid);
  check "own visible" true (Txn.visible mgr t2.Txn.snapshot t2.Txn.xid);
  let t3 = Txn.begin_txn mgr in
  check "future invisible" false (Txn.visible mgr t2.Txn.snapshot t3.Txn.xid);
  (* a transaction that commits AFTER t2's snapshot stays invisible *)
  Txn.commit mgr t3;
  check "later commit still invisible to old snapshot" false
    (Txn.visible mgr t2.Txn.snapshot t3.Txn.xid);
  Txn.commit mgr t2

let test_visibility_aborted () =
  let mgr = Txn.create_mgr () in
  let t1 = Txn.begin_txn mgr in
  Txn.abort mgr t1;
  let t2 = Txn.begin_txn mgr in
  check "aborted invisible" false (Txn.visible mgr t2.Txn.snapshot t1.Txn.xid);
  Txn.commit mgr t2

let test_horizon () =
  let mgr = Txn.create_mgr () in
  checki "empty horizon is next xid" 1 (Txn.horizon mgr);
  let t1 = Txn.begin_txn mgr in
  let _t2 = Txn.begin_txn mgr in
  checki "horizon is oldest active" 1 (Txn.horizon mgr);
  Txn.commit mgr t1;
  (* t2's snapshot saw t1 running, so the horizon must stay at t1 *)
  checki "horizon pinned by t2's snapshot" 1 (Txn.horizon mgr)

let test_recovery_clog () =
  let mgr = Txn.create_mgr () in
  Txn.mark_recovered mgr ~xid:7 ~committed:true;
  Txn.mark_recovered mgr ~xid:8 ~committed:false;
  check "recovered commit" true (Txn.is_committed mgr 7);
  check "recovered abort" true (Txn.status mgr 8 = Txn.Aborted);
  check "xid counter past recovered" true (Txn.last_xid mgr >= 8)

let test_locks_basic () =
  let lm = Lockmgr.create () in
  check "acquire" true (Lockmgr.try_acquire lm ~xid:1 ~rel:0 ~key:10 = Lockmgr.Granted);
  check "reentrant" true (Lockmgr.try_acquire lm ~xid:1 ~rel:0 ~key:10 = Lockmgr.Granted);
  check "conflict" true (Lockmgr.try_acquire lm ~xid:2 ~rel:0 ~key:10 = Lockmgr.Conflict 1);
  check "other key free" true (Lockmgr.try_acquire lm ~xid:2 ~rel:0 ~key:11 = Lockmgr.Granted);
  check "other rel free" true (Lockmgr.try_acquire lm ~xid:2 ~rel:1 ~key:10 = Lockmgr.Granted);
  Alcotest.(check (option int)) "holder" (Some 1) (Lockmgr.holder lm ~rel:0 ~key:10);
  Alcotest.(check (option int)) "other key's holder" (Some 2) (Lockmgr.holder lm ~rel:0 ~key:11);
  Lockmgr.release_all lm ~xid:1;
  check "freed after release" true (Lockmgr.try_acquire lm ~xid:2 ~rel:0 ~key:10 = Lockmgr.Granted)

let qcheck_txn_state_machine =
  QCheck.Test.make ~name:"txn manager state machine" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 60) (int_bound 2))
    (fun ops ->
      let mgr = Txn.create_mgr () in
      let active = ref [] in
      let finished = ref [] in
      List.iter
        (fun op ->
          match (op, !active) with
          | 0, _ ->
              let t = Txn.begin_txn mgr in
              active := t :: !active
          | 1, t :: rest ->
              Txn.commit mgr t;
              active := rest;
              finished := (t.Txn.xid, Txn.Committed) :: !finished
          | _, t :: rest ->
              Txn.abort mgr t;
              active := rest;
              finished := (t.Txn.xid, Txn.Aborted) :: !finished
          | _, [] -> ())
        ops;
      let actives_ok =
        List.for_all (fun t -> Txn.status mgr t.Txn.xid = Txn.In_progress) !active
      in
      let finished_ok = List.for_all (fun (x, s) -> Txn.status mgr x = s) !finished in
      let set_ok =
        List.sort compare (Txn.active_xids mgr)
        = List.sort compare (List.map (fun t -> t.Txn.xid) !active)
      in
      actives_ok && finished_ok && set_ok)

let suite =
  [
    Alcotest.test_case "snapshot visibility rules" `Quick test_snapshot_sees;
    Alcotest.test_case "txn lifecycle" `Quick test_txn_lifecycle;
    Alcotest.test_case "concurrent sets" `Quick test_txn_concurrent_sets;
    Alcotest.test_case "visibility predicate" `Quick test_visibility_predicate;
    Alcotest.test_case "aborted invisible" `Quick test_visibility_aborted;
    Alcotest.test_case "gc horizon" `Quick test_horizon;
    Alcotest.test_case "clog recovery" `Quick test_recovery_clog;
    Alcotest.test_case "locks basic" `Quick test_locks_basic;
    QCheck_alcotest.to_alcotest qcheck_txn_state_machine;
  ]
