(* Tests for the contention subsystem: first-updater-wins without
   waiting, the retry orchestrator, the admission gate and the online SI
   checker — including a randomized interleaved-transaction torture run
   over every engine. *)

module C = Sias_txn.Contention
module Txn = Sias_txn.Txn
module Simclock = Sias_util.Simclock
module Value = Mvcc.Value

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let make () =
  let clock = Simclock.create () in
  (clock, C.create ~clock ())

let engines : (module Mvcc.Engine.S) list =
  [ (module Mvcc.Si_engine); (module Mvcc.Si_cv_engine); (module Mvcc.Sias_engine);
    (module Mvcc.Sias_vector) ]

let set v r =
  let r = Array.copy r in
  r.(1) <- Value.Int v;
  r

(* ---------------- first-updater-wins ---------------- *)

(* The second writer of an item aborts at once, whether the first is
   still running (its writer lock is held) or has already committed (the
   visible version is stale); no simulated time is spent waiting. *)
let test_no_wait () =
  List.iter
    (fun (module E : Mvcc.Engine.S) ->
      let db = Mvcc.Db.create ~buffer_pages:128 () in
      let ck = Mvcc.Sichecker.attach (Mvcc.Db.bus db) in
      let eng = E.create db in
      let table = E.create_table eng ~name:"t" ~pk_col:0 () in
      let boot = E.begin_txn eng in
      Result.get_ok (E.insert eng boot table [| Value.Int 1; Value.Int 0 |]);
      E.commit eng boot |> Result.get_ok;
      let first = E.begin_txn eng in
      let second = E.begin_txn eng in
      Result.get_ok (E.update eng first table ~pk:1 (set 10));
      let before = Simclock.now db.Mvcc.Db.clock in
      check (E.name ^ ": held lock aborts") true
        (E.update eng second table ~pk:1 (set 20) = Error Mvcc.Engine.Write_conflict);
      check (E.name ^ ": no waiting charged") true
        (Simclock.now db.Mvcc.Db.clock -. before < 0.001);
      E.commit eng first |> Result.get_ok;
      check (E.name ^ ": stale version aborts") true
        (E.update eng second table ~pk:1 (set 30) = Error Mvcc.Engine.Write_conflict);
      (match E.read eng second table ~pk:1 with
      | Some r -> checki (E.name ^ ": loser keeps its snapshot") 0 (Value.int r.(1))
      | None -> Alcotest.fail "row lost");
      E.abort eng second;
      let final = E.begin_txn eng in
      (match E.read eng final table ~pk:1 with
      | Some r -> checki (E.name ^ ": first updater's write survives") 10 (Value.int r.(1))
      | None -> Alcotest.fail "row lost");
      E.commit eng final |> Result.get_ok;
      checki (E.name ^ ": checker silent") 0 (Mvcc.Sichecker.violation_count ck))
    engines

(* ---------------- retry orchestrator ---------------- *)

let test_retry_completes_first_try () =
  let clock, c = make () in
  let cfg = C.retry_config () in
  (match C.run_with_retries c ~cfg ~retryable:(fun _ -> false) ~f:(fun ~attempt -> attempt) with
  | C.Completed (v, n) ->
      checki "value" 1 v;
      checki "one attempt" 1 n
  | C.Gave_up _ -> Alcotest.fail "gave up on non-retryable result");
  Alcotest.(check (float 0.0)) "no backoff charged" 0.0 (Simclock.now clock)

let test_retry_backs_off_then_completes () =
  let clock, c = make () in
  let cfg = C.retry_config ~max_attempts:6 ~base_backoff_s:0.002 () in
  (match
     C.run_with_retries c ~cfg
       ~retryable:(fun ok -> not ok)
       ~f:(fun ~attempt -> attempt >= 3)
   with
  | C.Completed (ok, n) ->
      check "completed" true ok;
      checki "three attempts" 3 n
  | C.Gave_up _ -> Alcotest.fail "should have completed");
  checki "two resubmissions" 2 (C.stats c).C.retries;
  (* two backoffs, each jittered into [0.5, 1) of 2ms then 4ms *)
  check "simulated backoff charged" true (Simclock.now clock >= 0.003);
  check "capped below maxima" true (Simclock.now clock < 0.006)

let test_retry_attempts_exhausted () =
  let _, c = make () in
  let cfg = C.retry_config ~max_attempts:4 () in
  (match C.run_with_retries c ~cfg ~retryable:(fun _ -> true) ~f:(fun ~attempt:_ -> ()) with
  | C.Gave_up (C.Attempts_exhausted, n) -> checki "all attempts used" 4 n
  | _ -> Alcotest.fail "expected Attempts_exhausted");
  checki "give-up counted" 1 (C.stats c).C.give_ups;
  checki "three resubmissions" 3 (C.stats c).C.retries

let test_retry_deadline () =
  let _, c = make () in
  (* the first backoff (>= 0.5 * 0.1s) already breaks a 1 ms deadline *)
  let cfg = C.retry_config ~max_attempts:10 ~base_backoff_s:0.1 ~deadline_s:0.001 () in
  (match C.run_with_retries c ~cfg ~retryable:(fun _ -> true) ~f:(fun ~attempt:_ -> ()) with
  | C.Gave_up (C.Deadline_exceeded, n) -> checki "stopped on first attempt" 1 n
  | _ -> Alcotest.fail "expected Deadline_exceeded");
  checki "no resubmission" 0 (C.stats c).C.retries

let test_retry_jitter_deterministic () =
  let run () =
    let clock, c = make () in
    let cfg = C.retry_config ~max_attempts:5 () in
    ignore (C.run_with_retries c ~cfg ~retryable:(fun _ -> true) ~f:(fun ~attempt:_ -> ()));
    Simclock.now clock
  in
  Alcotest.(check (float 0.0)) "same seed, same backoff" (run ()) (run ())

(* ---------------- admission gate ---------------- *)

(* No cap: every request is admitted until WAL backpressure turns on,
   which sheds at once; neither costs simulated time. *)
let test_admission_unlimited () =
  let clock, c = make () in
  for _ = 1 to 100 do
    check "always admitted" true (C.admit c = C.Admitted)
  done;
  C.set_backpressure c true;
  check "shed under backpressure" true (C.admit c = C.Shed);
  checki "shed counted" 1 (C.stats c).C.shed;
  C.set_backpressure c false;
  check "admitted once released" true (C.admit c = C.Admitted);
  Alcotest.(check (float 0.0)) "free" 0.0 (Simclock.now clock)

(* ---------------- the SI checker, driven directly ---------------- *)

module Sichecker = Mvcc.Sichecker

let row v = Some [| Value.Int 1; Value.Int v |]

let test_checker_clean_history () =
  let mgr = Txn.create_mgr () in
  let ck = Sichecker.create () in
  let begin_observed () =
    let t = Txn.begin_txn mgr in
    Sichecker.on_begin ck ~xid:t.Txn.xid ~snapshot:t.Txn.snapshot;
    t
  in
  let t1 = begin_observed () in
  Sichecker.on_write ck ~xid:t1.Txn.xid ~rel:0 ~pk:1 ~row:(row 10);
  (* own pending write reads back *)
  Sichecker.on_read ck ~xid:t1.Txn.xid ~rel:0 ~pk:1 ~row:(row 10);
  Txn.commit mgr t1;
  Sichecker.on_commit ck ~xid:t1.Txn.xid;
  (* a later snapshot sees the committed version *)
  let t2 = begin_observed () in
  Sichecker.on_read ck ~xid:t2.Txn.xid ~rel:0 ~pk:1 ~row:(row 10);
  (* a concurrent writer commits; t2's reads must stay on the old version *)
  let t3 = begin_observed () in
  Sichecker.on_write ck ~xid:t3.Txn.xid ~rel:0 ~pk:1 ~row:(row 20);
  Txn.commit mgr t3;
  Sichecker.on_commit ck ~xid:t3.Txn.xid;
  Sichecker.on_read ck ~xid:t2.Txn.xid ~rel:0 ~pk:1 ~row:(row 10);
  Txn.commit mgr t2;
  Sichecker.on_commit ck ~xid:t2.Txn.xid;
  checki "silent" 0 (Sichecker.violation_count ck);
  check "reads were checked" true (Sichecker.reads_checked ck >= 3);
  check "report says OK" true
    (String.length (Sichecker.report ck) >= 13
    && String.sub (Sichecker.report ck) 0 13 = "si-checker: O")

let test_checker_catches_stale_and_future_reads () =
  let mgr = Txn.create_mgr () in
  let ck = Sichecker.create () in
  let t1 = Txn.begin_txn mgr in
  Sichecker.on_begin ck ~xid:t1.Txn.xid ~snapshot:t1.Txn.snapshot;
  Sichecker.on_write ck ~xid:t1.Txn.xid ~rel:0 ~pk:1 ~row:(row 10);
  Txn.commit mgr t1;
  Sichecker.on_commit ck ~xid:t1.Txn.xid;
  let t2 = Txn.begin_txn mgr in
  Sichecker.on_begin ck ~xid:t2.Txn.xid ~snapshot:t2.Txn.snapshot;
  let t3 = Txn.begin_txn mgr in
  Sichecker.on_begin ck ~xid:t3.Txn.xid ~snapshot:t3.Txn.snapshot;
  Sichecker.on_write ck ~xid:t3.Txn.xid ~rel:0 ~pk:1 ~row:(row 20);
  Txn.commit mgr t3;
  Sichecker.on_commit ck ~xid:t3.Txn.xid;
  (* t2 reading t3's version is a snapshot violation (committed after t2
     began); reading a wrong digest is too; reading absence likewise *)
  Sichecker.on_read ck ~xid:t2.Txn.xid ~rel:0 ~pk:1 ~row:(row 20);
  checki "future read caught" 1 (Sichecker.violation_count ck);
  Sichecker.on_read ck ~xid:t2.Txn.xid ~rel:0 ~pk:1 ~row:(row 99);
  checki "wrong row caught" 2 (Sichecker.violation_count ck);
  Sichecker.on_read ck ~xid:t2.Txn.xid ~rel:0 ~pk:1 ~row:None;
  checki "lost row caught" 3 (Sichecker.violation_count ck)

let test_checker_catches_fcw () =
  let mgr = Txn.create_mgr () in
  let ck = Sichecker.create () in
  (* two overlapping transactions both commit a write to the same item *)
  let t1 = Txn.begin_txn mgr in
  Sichecker.on_begin ck ~xid:t1.Txn.xid ~snapshot:t1.Txn.snapshot;
  let t2 = Txn.begin_txn mgr in
  Sichecker.on_begin ck ~xid:t2.Txn.xid ~snapshot:t2.Txn.snapshot;
  Sichecker.on_write ck ~xid:t1.Txn.xid ~rel:0 ~pk:5 ~row:(row 1);
  Sichecker.on_write ck ~xid:t2.Txn.xid ~rel:0 ~pk:5 ~row:(row 2);
  Txn.commit mgr t1;
  Sichecker.on_commit ck ~xid:t1.Txn.xid;
  Txn.commit mgr t2;
  Sichecker.on_commit ck ~xid:t2.Txn.xid;
  checki "first-committer-wins breach caught" 1 (Sichecker.violation_count ck);
  (* disjoint items stay silent *)
  checki "commits checked" 2 (Sichecker.commits_checked ck)

(* ---------------- randomized interleaved torture ---------------- *)

(* Random interleavings of three transaction slots over eight keys, for
   every engine: the run must terminate, committed state must
   follow the per-slot pending-write model, reads must be snapshot
   consistent, and the online checker must stay silent. *)
module Torture (E : Mvcc.Engine.S) = struct
  type slot = {
    txn : Txn.t;
    snap_vals : int array;  (* committed model state at begin *)
    pending : (int, int) Hashtbl.t;  (* key -> value written by this txn *)
  }

  let run ops =
    let db = Mvcc.Db.create ~buffer_pages:128 () in
    let ck = Mvcc.Sichecker.attach (Mvcc.Db.bus db) in
    let eng = E.create db in
    let table = E.create_table eng ~name:"t" ~pk_col:0 () in
    let nkeys = 8 in
    let boot = E.begin_txn eng in
    for k = 0 to nkeys - 1 do
      Result.get_ok (E.insert eng boot table [| Value.Int k; Value.Int 0 |])
    done;
    E.commit eng boot |> Result.get_ok;
    let committed = Array.make nkeys 0 in
    let slots = Array.make 3 None in
    let fresh = ref 0 in
    let ok = ref true in
    let ensure s =
      match slots.(s) with
      | Some sl -> sl
      | None ->
          let sl =
            {
              txn = E.begin_txn eng;
              snap_vals = Array.copy committed;
              pending = Hashtbl.create 8;
            }
          in
          slots.(s) <- Some sl;
          sl
    in
    let finish s = slots.(s) <- None in
    List.iter
      (fun (s, op) ->
        let sl = ensure s in
        if op = 0 then begin
          (* commit: apply the model only if the engine committed *)
          E.commit eng sl.txn |> Result.get_ok;
          Hashtbl.iter (fun k v -> committed.(k) <- v) sl.pending;
          finish s
        end
        else if op = 1 then begin
          E.abort eng sl.txn;
          finish s
        end
        else if op <= 9 then begin
          (* update key (op - 2) with a fresh value; a refused write
             leaves the transaction usable *)
          let k = op - 2 in
          incr fresh;
          let v = !fresh in
          match
            E.update eng sl.txn table ~pk:k (fun r ->
                let r = Array.copy r in
                r.(1) <- Value.Int v;
                r)
          with
          | Ok () -> Hashtbl.replace sl.pending k v
          | Error _ -> ()
        end
        else begin
          (* read a key: own write, else the value from the begin-time
             snapshot of the committed model *)
          let k = op mod nkeys in
          let expected =
            match Hashtbl.find_opt sl.pending k with
            | Some v -> v
            | None -> sl.snap_vals.(k)
          in
          match E.read eng sl.txn table ~pk:k with
          | Some r -> if Value.int r.(1) <> expected then ok := false
          | None -> ok := false
        end)
      ops;
    Array.iteri
      (fun s sl -> match sl with Some sl -> E.abort eng sl.txn; slots.(s) <- None | None -> ())
      slots;
    let final = E.begin_txn eng in
    for k = 0 to nkeys - 1 do
      match E.read eng final table ~pk:k with
      | Some r -> if Value.int r.(1) <> committed.(k) then ok := false
      | None -> ok := false
    done;
    E.commit eng final |> Result.get_ok;
    !ok && Sichecker.violation_count ck = 0

  let qcheck_test name =
    QCheck.Test.make ~name ~count:15
      QCheck.(
        list_of_size Gen.(int_range 20 80) (pair (int_bound 2) (int_bound 15)))
      run
end

module Torture_si = Torture (Mvcc.Si_engine)
module Torture_sicv = Torture (Mvcc.Si_cv_engine)
module Torture_sias = Torture (Mvcc.Sias_engine)
module Torture_siasv = Torture (Mvcc.Sias_vector)

let suite =
  [
    Alcotest.test_case "no-wait aborts at once" `Quick test_no_wait;
    Alcotest.test_case "retry: completes first try" `Quick test_retry_completes_first_try;
    Alcotest.test_case "retry: backoff then success" `Quick test_retry_backs_off_then_completes;
    Alcotest.test_case "retry: attempts exhausted" `Quick test_retry_attempts_exhausted;
    Alcotest.test_case "retry: deadline exceeded" `Quick test_retry_deadline;
    Alcotest.test_case "retry: deterministic jitter" `Quick test_retry_jitter_deterministic;
    Alcotest.test_case "admission: unlimited is free" `Quick test_admission_unlimited;
    Alcotest.test_case "checker: clean histories stay silent" `Quick
      test_checker_clean_history;
    Alcotest.test_case "checker: stale and future reads" `Quick
      test_checker_catches_stale_and_future_reads;
    Alcotest.test_case "checker: first-committer-wins" `Quick test_checker_catches_fcw;
    QCheck_alcotest.to_alcotest (Torture_si.qcheck_test "SI: interleaved torture");
    QCheck_alcotest.to_alcotest (Torture_sicv.qcheck_test "SI-CV: interleaved torture");
    QCheck_alcotest.to_alcotest (Torture_sias.qcheck_test "SIAS: interleaved torture");
    QCheck_alcotest.to_alcotest (Torture_siasv.qcheck_test "SIAS-V: interleaved torture");
  ]
