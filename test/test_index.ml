(* Tests for the disk-backed B+ tree. *)

module Btree = Sias_index.Btree
module Bufpool = Sias_storage.Bufpool
module Device = Flashsim.Device
module Simclock = Sias_util.Simclock

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_list = Alcotest.(check (list int))

let mk_pool ?(capacity = 256) () =
  let clock = Simclock.create () in
  let device = Device.ssd_x25e ~blocks:2048 () in
  Bufpool.create ~device ~clock ~capacity_pages:capacity (), device

let mk_tree ?capacity () =
  let pool, device = mk_pool ?capacity () in
  (Btree.create pool ~rel:0, pool, device)

let test_insert_lookup () =
  let t, _, _ = mk_tree () in
  Btree.insert t ~key:5 ~payload:50;
  Btree.insert t ~key:3 ~payload:30;
  Btree.insert t ~key:8 ~payload:80;
  check_list "lookup 5" [ 50 ] (Btree.lookup t ~key:5);
  check_list "lookup 3" [ 30 ] (Btree.lookup t ~key:3);
  check_list "missing" [] (Btree.lookup t ~key:7);
  checki "count" 3 (Btree.entry_count t)

let test_duplicates () =
  let t, _, _ = mk_tree () in
  Btree.insert t ~key:5 ~payload:1;
  Btree.insert t ~key:5 ~payload:2;
  Btree.insert t ~key:5 ~payload:3;
  Btree.insert t ~key:5 ~payload:2;
  (* exact duplicate ignored *)
  check_list "all payloads" [ 1; 2; 3 ] (Btree.lookup t ~key:5);
  checki "no duplicate pair" 3 (Btree.entry_count t)

let test_delete () =
  let t, _, _ = mk_tree () in
  Btree.insert t ~key:5 ~payload:1;
  Btree.insert t ~key:5 ~payload:2;
  check "delete existing" true (Btree.delete t ~key:5 ~payload:1);
  check "delete absent" false (Btree.delete t ~key:5 ~payload:1);
  check_list "remaining" [ 2 ] (Btree.lookup t ~key:5);
  check "mem" true (Btree.mem t ~key:5 ~payload:2);
  check "not mem" false (Btree.mem t ~key:5 ~payload:1)

let test_range () =
  let t, _, _ = mk_tree () in
  for k = 1 to 100 do
    Btree.insert t ~key:k ~payload:(k * 10)
  done;
  let r = Btree.range t ~lo:20 ~hi:25 in
  check_list "range keys" [ 20; 21; 22; 23; 24; 25 ] (List.map fst r);
  check_list "range payloads" [ 200; 210; 220; 230; 240; 250 ] (List.map snd r);
  check "empty range" true (Btree.range t ~lo:200 ~hi:300 = []);
  check "inverted range" true (Btree.range t ~lo:5 ~hi:1 = [])

let test_splits_and_height () =
  let t, _, _ = mk_tree () in
  let n = 5_000 in
  for k = 1 to n do
    Btree.insert t ~key:k ~payload:k
  done;
  check "tree grew" true (Btree.height t >= 2);
  check "splits happened" true ((Btree.stats t).Btree.splits > 0);
  (* every key still reachable *)
  let ok = ref true in
  for k = 1 to n do
    if Btree.lookup t ~key:k <> [ k ] then ok := false
  done;
  check "all keys present" true !ok;
  checki "entry count" n (Btree.entry_count t)

let test_random_order_inserts () =
  let t, _, _ = mk_tree () in
  let rng = Sias_util.Rng.create 17 in
  let keys = Array.init 3_000 (fun i -> i) in
  Sias_util.Rng.shuffle rng keys;
  Array.iter (fun k -> Btree.insert t ~key:k ~payload:(k + 1)) keys;
  let ok = ref true in
  Array.iter (fun k -> if Btree.lookup t ~key:k <> [ k + 1 ] then ok := false) keys;
  check "random insert order" true !ok;
  (* iter visits in sorted order *)
  let prev = ref min_int in
  let sorted = ref true in
  Btree.iter t (fun k _ ->
      if k < !prev then sorted := false;
      prev := k);
  check "iter sorted" true !sorted

let test_survives_buffer_pressure () =
  (* a pool smaller than the tree forces node pages through eviction *)
  let t, pool, _ = mk_tree ~capacity:8 () in
  for k = 1 to 4_000 do
    Btree.insert t ~key:k ~payload:k
  done;
  let st = Bufpool.stats pool in
  check "evictions happened" true (st.Bufpool.evictions > 0);
  let ok = ref true in
  for k = 1 to 4_000 do
    if Btree.lookup t ~key:k <> [ k ] then ok := false
  done;
  check "correct under eviction" true !ok

let test_node_writes_traced () =
  let t, pool, device = mk_tree ~capacity:8 () in
  for k = 1 to 2_000 do
    Btree.insert t ~key:k ~payload:k
  done;
  Bufpool.flush_all pool ~sync:false;
  check "index writes reach the device" true
    (Flashsim.Blocktrace.write_count (Device.trace device) > 0)

let qcheck_btree_model =
  QCheck.Test.make ~name:"btree equals sorted model" ~count:40
    QCheck.(
      list_of_size
        Gen.(int_range 1 400)
        (pair (int_bound 100) (pair (int_bound 20) bool)))
    (fun ops ->
      let t, _, _ = mk_tree () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, (p, ins)) ->
          if ins then begin
            Btree.insert t ~key:k ~payload:p;
            Hashtbl.replace model (k, p) ()
          end
          else begin
            ignore (Btree.delete t ~key:k ~payload:p);
            Hashtbl.remove model (k, p)
          end)
        ops;
      let expected =
        Hashtbl.fold (fun kp () acc -> kp :: acc) model [] |> List.sort compare
      in
      let actual = ref [] in
      Btree.iter t (fun k p -> actual := (k, p) :: !actual);
      List.rev !actual = expected)

let suite =
  [
    Alcotest.test_case "insert/lookup" `Quick test_insert_lookup;
    Alcotest.test_case "duplicate keys" `Quick test_duplicates;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "range scan" `Quick test_range;
    Alcotest.test_case "splits and height" `Quick test_splits_and_height;
    Alcotest.test_case "random insert order + sorted iter" `Quick test_random_order_inserts;
    Alcotest.test_case "survives buffer pressure" `Quick test_survives_buffer_pressure;
    Alcotest.test_case "node writes traced" `Quick test_node_writes_traced;
    QCheck_alcotest.to_alcotest qcheck_btree_model;
  ]
