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

(* Byte identity of the in-frame node writes: a node page's slot-0 item
   must equal the allocate-and-fill reference encoder applied to the
   node. *)
let image_matches t pool block =
  Bufpool.with_page pool ~rel:0 ~block (fun page -> Sias_storage.Page.read page 0)
  = Some (Btree.reference_image t ~block)

(* Applies [ops] and checks after every one of them. With [full_every]
   = 1 every node is checked each time; otherwise an operation checks the
   pages it dirtied (the pool is flushed before it), and every node after
   a split and every [full_every] operations, so that a node changed
   without a write still shows. *)
let run_checked ?(full_every = 1) t pool ops =
  let splits () = (Btree.stats t).Btree.splits in
  List.for_all
    (fun (i, (k, p, ins)) ->
      if full_every > 1 then Bufpool.flush_all pool ~sync:false;
      let before = splits () in
      if ins then Btree.insert t ~key:k ~payload:p
      else ignore (Btree.delete t ~key:k ~payload:p);
      let all = i mod full_every = 0 || splits () <> before in
      let ok = ref true in
      for block = 0 to Btree.node_count t - 1 do
        if (all || Bufpool.is_dirty pool ~rel:0 ~block) && not (image_matches t pool block)
        then ok := false
      done;
      !ok)
    (List.mapi (fun i op -> (i, op)) ops)

(* Leaf splits, duplicate keys and deletes that shrink nodes; every node
   checked after every operation. *)
let qcheck_node_images =
  QCheck.Test.make ~name:"node images equal the reference encoder" ~count:30
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 700) (pair (int_bound 60) (int_bound 40)))
        (list_of_size Gen.(int_range 1 300) (pair (int_bound 60) (int_bound 40))))
    (fun (ins, dels) ->
      let t, pool, _ = mk_tree () in
      run_checked t pool (List.map (fun (k, p) -> (k, p, true)) ins)
      && run_checked t pool (List.map (fun (k, p) -> (k, p, false)) dels)
      && run_checked t pool (List.map (fun (k, p) -> (k, p, false)) ins))

(* Enough inserts to split internal nodes (a height-3 tree), with
   duplicate keys, then deletes that shrink every leaf. *)
let qcheck_node_images_deep =
  QCheck.Test.make ~name:"node images equal the reference encoder, height 3" ~count:1
    QCheck.(pair small_nat (int_range 2 8))
    (fun (seed, dup) ->
      let t, pool, _ = mk_tree ~capacity:512 () in
      let rng = Sias_util.Rng.create seed in
      let ins = List.init 34_000 (fun i -> (i / dup, Sias_util.Rng.int rng 1_000, true)) in
      let dels = List.filteri (fun i _ -> i mod 3 <> 0) ins in
      run_checked ~full_every:1_000 t pool ins
      && Btree.height t = 3
      && run_checked ~full_every:1_000 t pool
           (List.map (fun (k, p, _) -> (k, p, false)) dels))

(* Page-sized buffers stay out of the major heap: any block of more than
   256 words is allocated there directly, so a per-operation image copy
   shows as major words. Measured as the [Gc.quick_stat] major-words delta
   around [n] operations, each side of it closed by a minor collection so
   that promoted survivors are counted too. *)
let major_words_per_op n f =
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  for i = 0 to n - 1 do
    f i
  done;
  Gc.minor ();
  ((Gc.quick_stat ()).Gc.major_words -. before) /. float_of_int n

let test_insert_alloc_pin () =
  let t, _, _ = mk_tree () in
  (* warm-up: three half-full leaves under one root, every page resident *)
  for k = 0 to 499 do
    Btree.insert t ~key:(10 * k) ~payload:k
  done;
  let splits = (Btree.stats t).Btree.splits in
  let n = 100 in
  let words = major_words_per_op n (fun i -> Btree.insert t ~key:((10 * i) + 5) ~payload:i) in
  checki "no split while measured" splits (Btree.stats t).Btree.splits;
  if words >= 257. then Alcotest.failf "%.1f major words per array-tree insert" words

let test_full_page_write_alloc_pin () =
  let db = Mvcc.Db.create () in
  let rel = Mvcc.Db.alloc_rel db in
  let n = 200 in
  let capture i =
    Mvcc.Walcodec.log_heap db ~xid:0 ~rel ~kind:Sias_wal.Wal.Insert
      ~tid:(Sias_storage.Tid.make ~block:i ~slot:0) ~item:Bytes.empty
  in
  (* warm-up: every page resident and the image table sized *)
  for i = 0 to n - 1 do
    capture i
  done;
  Hashtbl.clear db.Mvcc.Db.fpw_done;
  let words = major_words_per_op n capture in
  (* the record's payload is retained by the log: the one copy the
     capture must make *)
  let payload =
    Mvcc.Walcodec.encode (Sias_storage.Tid.make ~block:0 ~slot:0)
      (Bytes.create (Bufpool.page_size db.Mvcc.Db.pool))
  in
  let extra = words -. float_of_int (Obj.reachable_words (Obj.repr payload)) in
  if extra >= 257. then
    Alcotest.failf "%.1f major words per full-page write beyond its payload" extra

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
    QCheck_alcotest.to_alcotest qcheck_node_images;
    QCheck_alcotest.to_alcotest qcheck_node_images_deep;
    Alcotest.test_case "array insert allocation pin" `Quick test_insert_alloc_pin;
    Alcotest.test_case "full-page write allocation pin" `Quick test_full_page_write_alloc_pin;
  ]
