(* Tests for the paged, WAL-logged B+Tree: model equivalence, the
   key order of every node's slots, crash recovery byte-exactness, the
   index crash points, and array-vs-paged engine equivalence. *)

module Pbt = Sias_index.Paged_btree
module Db = Mvcc.Db
module Walcodec = Mvcc.Walcodec
module Engine = Mvcc.Engine
module Value = Mvcc.Value
module Wal = Sias_wal.Wal
module Bufpool = Sias_storage.Bufpool
module Page = Sias_storage.Page
module Bgwriter = Sias_storage.Bgwriter
module Crashpoint = Sias_chaos.Crashpoint
module Rng = Sias_util.Rng

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_list = Alcotest.(check (list int))

(* The paged tree needs a WAL-first logger, so the fixture is a whole
   database context rather than a bare pool. *)
let mk ?(buffer_pages = 256) () =
  let db = Db.create ~buffer_pages () in
  let rel = Db.alloc_rel db in
  (db, rel, Walcodec.make_index db ~rel)

let entries t =
  let acc = ref [] in
  Pbt.iter t (fun k p -> acc := (k, p) :: !acc);
  List.rev !acc

let i64 b off = Int64.to_int (Bytes.get_int64_le b off)

(* An entry item's (key, payload): a leaf item is two i64s; an internal
   item keeps the first [s] big-endian key bytes of the node's ref key
   and stores the other [8 - s], then the payload. *)
let entry_pair ~leaf ~ref_key item =
  if leaf then (i64 item 0, i64 item 8)
  else begin
    let s = Bytes.get_uint8 item 0 in
    let kb = Bytes.create 8 in
    Bytes.set_int64_be kb 0 (Int64.of_int ref_key);
    Bytes.blit item 1 kb s (8 - s);
    (Int64.to_int (Bytes.get_int64_be kb 0), i64 item (9 - s))
  end

(* The slot-order invariant of every node page, read through the pool:
   slot 0 is the 32-byte node header, slots 1.. hold the entries
   strictly ascending by (key, payload), and no slot is dead. *)
let nodes_ordered db rel t =
  let ok = ref true in
  for block = 1 to Pbt.node_count t do
    Bufpool.with_page_ro db.Db.pool ~rel ~block (fun p ->
        let n = Page.slot_count p in
        if Page.live_count p <> n then ok := false;
        match Page.read p 0 with
        | Some h when Bytes.length h = 32 && Bytes.get_uint8 h 0 <= 1 ->
            let leaf = Bytes.get_uint8 h 0 = 0 and ref_key = i64 h 24 in
            let prev = ref None in
            for slot = 1 to n - 1 do
              match Page.read p slot with
              | None -> ok := false
              | Some item ->
                  let kp = entry_pair ~leaf ~ref_key item in
                  (match !prev with Some q when compare q kp >= 0 -> ok := false | _ -> ());
                  prev := Some kp
            done
        | _ -> ok := false)
  done;
  !ok

(* ---------------- the array suite's behaviors, on paged ---------------- *)

let test_insert_lookup () =
  let _, _, t = mk () in
  Pbt.insert t ~key:5 ~payload:50;
  Pbt.insert t ~key:3 ~payload:30;
  Pbt.insert t ~key:8 ~payload:80;
  check_list "lookup 5" [ 50 ] (Pbt.lookup t ~key:5);
  check_list "lookup 3" [ 30 ] (Pbt.lookup t ~key:3);
  check_list "missing" [] (Pbt.lookup t ~key:7);
  checki "count" 3 (Pbt.entry_count t)

let test_duplicates () =
  let _, _, t = mk () in
  Pbt.insert t ~key:5 ~payload:1;
  Pbt.insert t ~key:5 ~payload:2;
  Pbt.insert t ~key:5 ~payload:3;
  Pbt.insert t ~key:5 ~payload:2;
  check_list "all payloads" [ 1; 2; 3 ] (Pbt.lookup t ~key:5);
  checki "no duplicate pair" 3 (Pbt.entry_count t)

let test_delete () =
  let _, _, t = mk () in
  Pbt.insert t ~key:5 ~payload:1;
  Pbt.insert t ~key:5 ~payload:2;
  check "delete existing" true (Pbt.delete t ~key:5 ~payload:1);
  check "delete absent" false (Pbt.delete t ~key:5 ~payload:1);
  check_list "remaining" [ 2 ] (Pbt.lookup t ~key:5);
  check "mem" true (Pbt.mem t ~key:5 ~payload:2);
  check "not mem" false (Pbt.mem t ~key:5 ~payload:1)

let test_range () =
  let _, _, t = mk () in
  for k = 1 to 100 do
    Pbt.insert t ~key:k ~payload:(k * 10)
  done;
  let r = Pbt.range t ~lo:20 ~hi:25 in
  check_list "range keys" [ 20; 21; 22; 23; 24; 25 ] (List.map fst r);
  check_list "range payloads" [ 200; 210; 220; 230; 240; 250 ] (List.map snd r);
  check "empty range" true (Pbt.range t ~lo:200 ~hi:300 = []);
  check "inverted range" true (Pbt.range t ~lo:5 ~hi:1 = [])

let test_splits_and_height () =
  let _, _, t = mk () in
  let n = 5_000 in
  for k = 1 to n do
    Pbt.insert t ~key:k ~payload:k
  done;
  check "tree grew" true (Pbt.height t >= 2);
  check "splits happened" true ((Pbt.stats t).Pbt.splits > 0);
  let ok = ref true in
  for k = 1 to n do
    if Pbt.lookup t ~key:k <> [ k ] then ok := false
  done;
  check "all keys present" true !ok;
  checki "entry count" n (Pbt.entry_count t)

let test_random_order_inserts () =
  let _, _, t = mk () in
  let rng = Rng.create 17 in
  let keys = Array.init 3_000 (fun i -> i) in
  Rng.shuffle rng keys;
  Array.iter (fun k -> Pbt.insert t ~key:k ~payload:(k + 1)) keys;
  let ok = ref true in
  Array.iter (fun k -> if Pbt.lookup t ~key:k <> [ k + 1 ] then ok := false) keys;
  check "random insert order" true !ok;
  let prev = ref min_int in
  let sorted = ref true in
  Pbt.iter t (fun k _ ->
      if k < !prev then sorted := false;
      prev := k);
  check "iter sorted" true !sorted

let test_survives_buffer_pressure () =
  (* a pool smaller than the tree forces node pages through eviction;
     evicting dirty WAL-stamped index pages exercises the flush path *)
  let db, _, t = mk ~buffer_pages:16 () in
  for k = 1 to 4_000 do
    Pbt.insert t ~key:k ~payload:k
  done;
  let st = Bufpool.stats db.Db.pool in
  check "evictions happened" true (st.Bufpool.evictions > 0);
  let ok = ref true in
  for k = 1 to 4_000 do
    if Pbt.lookup t ~key:k <> [ k ] then ok := false
  done;
  check "correct under eviction" true !ok

let test_merge_on_emptied_leaf () =
  let _, _, t = mk () in
  for k = 1 to 900 do
    Pbt.insert t ~key:k ~payload:k
  done;
  check "tree split first" true ((Pbt.stats t).Pbt.splits > 0);
  for k = 1 to 900 do
    ignore (Pbt.delete t ~key:k ~payload:k)
  done;
  checki "emptied" 0 (Pbt.entry_count t);
  check "merges happened" true ((Pbt.stats t).Pbt.merges > 0);
  (* the tree stays usable after draining *)
  Pbt.insert t ~key:7 ~payload:70;
  check_list "reusable after drain" [ 70 ] (Pbt.lookup t ~key:7)

(* ---------------- crash recovery ---------------- *)

let capture db rel n =
  List.init n (fun block ->
      Bufpool.with_page_ro db.Db.pool ~rel ~block (fun p ->
          Bytes.copy (Page.to_bytes p)))

let check_byte_exact name before after =
  List.iteri
    (fun b (x, y) ->
      check (Printf.sprintf "%s: block %d byte-exact" name b) true
        (Bytes.equal x y))
    (List.combine before after)

(* Flush the WAL, crash, redo: every index page must come back with
   exactly the bytes the normal path produced, and the restored handle
   must serve the same entries. *)
let test_recovery_byte_exact () =
  let db, rel, t = mk () in
  let rng = Rng.create 23 in
  for _ = 1 to 2_500 do
    let k = Rng.int rng 1_000 and p = Rng.int rng 8 in
    if Rng.int rng 4 = 0 then ignore (Pbt.delete t ~key:k ~payload:p)
    else Pbt.insert t ~key:k ~payload:p
  done;
  Wal.flush db.Db.wal ~sync:true;
  let n = Pbt.node_count t + 2 in
  let before = capture db rel n in
  let before_entries = entries t in
  Db.crash db;
  Walcodec.redo db ~since_lsn:0;
  check_byte_exact "redo" before (capture db rel n);
  let t' = Walcodec.restore_index db ~rel in
  check "replayed nodes ordered" true (nodes_ordered db rel t');
  checki "entry count restored" (List.length before_entries) (Pbt.entry_count t');
  check "entries restored" true (entries t' = before_entries)

(* A checkpoint mid-life resets the full-page-write epoch and flushes
   the index pages; the next split must FPW the surviving pages so a
   crash before the dirty pages hit the device still replays exact. *)
let test_checkpoint_then_split () =
  let db, rel, t = mk () in
  for k = 1 to 290 do
    Pbt.insert t ~key:(2 * k) ~payload:k
  done;
  Bgwriter.checkpoint_now db.Db.bgwriter;
  for k = 1 to 40 do
    Pbt.insert t ~key:(2 * k + 1) ~payload:k
  done;
  check "post-checkpoint split" true ((Pbt.stats t).Pbt.splits > 0);
  Wal.flush db.Db.wal ~sync:true;
  let n = Pbt.node_count t + 2 in
  let before = capture db rel n in
  Db.crash db;
  Walcodec.redo db ~since_lsn:0;
  check_byte_exact "checkpointed split" before (capture db rel n);
  let t' = Walcodec.restore_index db ~rel in
  checki "entries" 330 (Pbt.entry_count t')

(* Redo places an [Ins] by the same binary search over the page bytes
   as the normal path, and a split's removals from the top of the slot
   directory down. Even keys 2..598 fill one leaf to 299 entries; key
   301 lands in its middle and fills it; key 101 splits it, moving the
   top 151 entries right and inserting into the left half. Replayed from
   the start of the log, and once from a full-page image taken by a
   checkpoint before the middle insert, every page comes back byte for
   byte. *)
let test_replay_middle_insert_and_split () =
  List.iter
    (fun checkpoint ->
      let name = if checkpoint then "from a full-page image" else "from the log start" in
      let db, rel, t = mk () in
      for k = 1 to 299 do
        Pbt.insert t ~key:(2 * k) ~payload:k
      done;
      if checkpoint then Bgwriter.checkpoint_now db.Db.bgwriter;
      Pbt.insert t ~key:301 ~payload:0;
      checki (name ^ ": full leaf, no split yet") 0 (Pbt.stats t).Pbt.splits;
      Pbt.insert t ~key:101 ~payload:0;
      checki (name ^ ": one split") 1 (Pbt.stats t).Pbt.splits;
      check (name ^ ": nodes ordered") true (nodes_ordered db rel t);
      Wal.flush db.Db.wal ~sync:true;
      let n = Pbt.node_count t + 2 in
      let before = capture db rel n and before_entries = entries t in
      Db.crash db;
      Walcodec.redo db ~since_lsn:0;
      check_byte_exact name before (capture db rel n);
      let t' = Walcodec.restore_index db ~rel in
      check (name ^ ": replayed nodes ordered") true (nodes_ordered db rel t');
      check (name ^ ": entries") true (entries t' = before_entries))
    [ false; true ]

(* Arm each index crash point in turn: the batch in flight when the
   "power" fails was never WAL-flushed, so recovery must serve exactly
   the pre-batch (flushed) tree. *)
let test_crash_points () =
  List.iter
    (fun point ->
      Crashpoint.disarm ();
      let db, rel, t = mk () in
      for k = 1 to 200 do
        Pbt.insert t ~key:k ~payload:k
      done;
      Wal.flush db.Db.wal ~sync:true;
      Crashpoint.arm ~point ();
      let crashed = ref false in
      let rec drive k =
        if k <= 2_000 && not !crashed then
          match Pbt.insert t ~key:k ~payload:k with
          | () -> drive (k + 1)
          | exception Crashpoint.Crash _ -> crashed := true
      in
      drive 201;
      Crashpoint.disarm ();
      check (point ^ " reached") true !crashed;
      Db.crash db;
      Walcodec.redo db ~since_lsn:0;
      let t' = Walcodec.restore_index db ~rel in
      (* only keys 1..200 were behind the flushed WAL prefix; everything
         after — including the half-applied batch — must be gone *)
      checki (point ^ ": flushed prefix entries") 200 (Pbt.entry_count t');
      let ok = ref true in
      for k = 1 to 200 do
        if Pbt.lookup t' ~key:k <> [ k ] then ok := false
      done;
      check (point ^ ": all flushed keys present") true !ok)
    [ "index.fpw.pre"; "index.wal.pre-apply"; "index.split.mid" ]

(* ---------------- QCheck: model + crash recovery ---------------- *)

let qcheck_paged_model =
  QCheck.Test.make ~name:"paged btree equals sorted model across a crash"
    ~count:15
    QCheck.(
      list_of_size
        Gen.(int_range 1 300)
        (pair (int_bound 100) (pair (int_bound 20) (int_bound 3))))
    (fun ops ->
      let db, rel, t = mk () in
      let model = Hashtbl.create 64 in
      let ordered = ref true in
      List.iter
        (fun (k, (p, op)) ->
          (match op with
          | 0 | 1 ->
              Pbt.insert t ~key:k ~payload:p;
              Hashtbl.replace model (k, p) ()
          | 2 ->
              ignore (Pbt.delete t ~key:k ~payload:p);
              Hashtbl.remove model (k, p)
          | _ ->
              (* update: move the entry to payload p+1 *)
              if Hashtbl.mem model (k, p) then begin
                ignore (Pbt.delete t ~key:k ~payload:p);
                Hashtbl.remove model (k, p);
                Pbt.insert t ~key:k ~payload:(p + 1);
                Hashtbl.replace model (k, p + 1) ()
              end);
          ordered := !ordered && nodes_ordered db rel t)
        ops;
      let expected =
        Hashtbl.fold (fun kp () acc -> kp :: acc) model [] |> List.sort compare
      in
      let range_expected lo hi =
        List.filter (fun (k, _) -> k >= lo && k <= hi) expected
      in
      let live_ok =
        !ordered
        && entries t = expected
        && Pbt.range t ~lo:10 ~hi:60 = range_expected 10 60
      in
      (* crash, replay, restore: same answers from the replayed pages *)
      Wal.flush db.Db.wal ~sync:true;
      Db.crash db;
      Walcodec.redo db ~since_lsn:0;
      let t' = Walcodec.restore_index db ~rel in
      live_ok
      && nodes_ordered db rel t'
      && entries t' = expected
      && Pbt.range t' ~lo:10 ~hi:60 = range_expected 10 60
      && Pbt.entry_count t' = List.length expected)

(* ---------------- multi-level trees ---------------- *)

(* Keys in nine classes by how many leading big-endian bytes they share
   with min_int, the root's ref key: class s in 1..7 varies byte s and
   the bytes below it (class 7 includes min_int + 1), class 8 is min_int
   itself (rare: the root's leftmost sentinel has that length anyway),
   and class 0 is everything else — small negative and positive keys,
   max_int, keys differing only in the top byte and keys differing only
   in the low byte. Classes 0..7 draw equally often, so at 4k operations
   leaf splits usually land inside each of them; the seeded test below
   checks that every truncation length 0..8 then reaches the root. *)
let multilevel_key rng =
  let bits () = Int64.to_int (Rng.int64 rng) land max_int in
  match Rng.int rng 33 with
  | 32 -> min_int
  | c when c >= 4 ->
      let shift = 8 * (7 - (1 + ((c - 4) / 4))) in
      min_int + ((1 + Rng.int rng 255) lsl shift) + (bits () land ((1 lsl shift) - 1))
  | 0 -> Rng.int rng 2001 - 1000
  | 1 -> max_int - Rng.int rng 64
  | 2 -> (Rng.int rng 64 lsl 56) lor 0x5A5A
  | _ -> 0x0123_4567_89AB_CD00 + Rng.int rng 256

(* [n] operations — 80% fresh inserts, 10% deletes and 10% payload moves
   of present pairs — applied to the tree and to a (key, payload) model,
   running [after_op] after each. *)
let build_multilevel ?(after_op = ignore) t rng n =
  let model = Hashtbl.create 4096 in
  let live = Array.make n (0, 0) and nlive = ref 0 in
  let add kp =
    Pbt.insert t ~key:(fst kp) ~payload:(snd kp);
    if not (Hashtbl.mem model kp) then begin
      Hashtbl.replace model kp ();
      live.(!nlive) <- kp;
      incr nlive
    end
  in
  let take () =
    let i = Rng.int rng !nlive in
    let kp = live.(i) in
    decr nlive;
    live.(i) <- live.(!nlive);
    if not (Pbt.delete t ~key:(fst kp) ~payload:(snd kp)) then failwith "present pair not deleted";
    Hashtbl.remove model kp;
    kp
  in
  for _ = 1 to n do
    (match Rng.int rng 20 with
    | r when r < 16 || !nlive = 0 -> add (multilevel_key rng, Rng.int rng 4)
    | r when r < 18 -> ignore (take ())
    | _ ->
        let k, p = take () in
        add (k, p + 1));
    after_op ()
  done;
  Hashtbl.fold (fun kp () acc -> kp :: acc) model [] |> List.sort compare

(* Random lookup, mem and range probes — at present keys, at generated
   keys that are mostly absent, and over spans up to the full key space —
   against the sorted model. *)
let probes_agree t rng expected =
  let present = Array.of_list expected in
  let in_range lo hi = List.filter (fun (k, _) -> k >= lo && k <= hi) expected in
  let ok = ref (entries t = expected && Pbt.range t ~lo:min_int ~hi:max_int = expected) in
  for _ = 1 to 300 do
    let k, p =
      if Array.length present > 0 && Rng.bool rng then Rng.choice rng present
      else (multilevel_key rng, Rng.int rng 5)
    in
    let hi =
      match Rng.int rng 3 with
      | 0 -> k
      | 1 -> k + Rng.int rng 1_000
      | _ -> if k > max_int / 2 then max_int else k + (max_int / 4)
    in
    let payloads = List.map snd (in_range k k) in
    ok :=
      !ok
      && Pbt.lookup t ~key:k = payloads
      && Pbt.mem t ~key:k ~payload:p = List.mem p payloads
      && Pbt.range t ~lo:k ~hi = in_range k hi
  done;
  !ok

(* Separator prefix lengths on the root page, read straight from the
   buffer pool: block 0's item holds the root block, and every entry of
   an internal node starts with its shared-byte count. *)
let root_prefix_lengths db rel =
  let pool = db.Db.pool in
  let read block slot = Bufpool.with_page_ro pool ~rel ~block (fun p -> Page.read p slot) in
  let root = Int64.to_int (Bytes.get_int64_le (Option.get (read 0 0)) 0) in
  Bufpool.with_page_ro pool ~rel ~block:root (fun p ->
      let acc = ref [] in
      Page.iter p (fun slot item ->
          if slot <> 0 then acc := Bytes.get_uint8 item 0 :: !acc);
      List.sort_uniq compare !acc)

let test_multilevel_prefix_lengths () =
  let db, rel, t = mk () in
  let rng = Rng.create 42 in
  let expected = build_multilevel t rng 4_000 in
  checki "two levels" 2 (Pbt.height t);
  check_list "every truncation length at the root" [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]
    (root_prefix_lengths db rel);
  checki "entry count" (List.length expected) (Pbt.entry_count t);
  check "probes match the model" true (probes_agree t rng expected)

let qcheck_multilevel_model =
  QCheck.Test.make ~name:"multi-level paged btree equals sorted model across a crash"
    ~count:12
    QCheck.(pair small_nat (int_range 1_500 4_000))
    (fun (seed, n) ->
      let db, rel, t = mk () in
      let rng = Rng.create seed in
      let ordered = ref true in
      let after_op () = ordered := !ordered && nodes_ordered db rel t in
      let expected = build_multilevel ~after_op t rng n in
      let live_ok = !ordered && Pbt.height t >= 2 && probes_agree t rng expected in
      Wal.flush db.Db.wal ~sync:true;
      Db.crash db;
      Walcodec.redo db ~since_lsn:0;
      let t' = Walcodec.restore_index db ~rel in
      live_ok
      && nodes_ordered db rel t'
      && Pbt.height t' = Pbt.height t
      && Pbt.entry_count t' = List.length expected
      && probes_agree t' rng expected)

(* Past 250 leaves the root splits, so the level-1 nodes to its right
   route against ref keys that are real separators rather than min_int:
   rebuilding a truncated key must take the ref key's own high bytes.
   Ascending inserts leave leaves half full, reaching three levels at
   ~38k entries; the keys cross zero, so some separators share no byte
   with their node's ref key. *)
let test_three_levels () =
  let db, rel, t = mk ~buffer_pages:1024 () in
  let key i = -(1 lsl 34) + (i * 1_048_577) in
  let n = 40_000 in
  for i = 0 to n - 1 do
    Pbt.insert t ~key:(key i) ~payload:(i land 3)
  done;
  checki "three levels" 3 (Pbt.height t);
  check "nodes ordered" true (nodes_ordered db rel t);
  let expected = List.init n (fun i -> (key i, i land 3)) in
  check "probes match the model" true (probes_agree t (Rng.create 5) expected);
  let ok = ref true in
  for i = 0 to n - 1 do
    if not (Pbt.mem t ~key:(key i) ~payload:(i land 3)) then ok := false
  done;
  check "every entry found" true !ok

(* Sequential inserts leave keys 1..150 in the leftmost leaf and 150
   keys in each leaf after it. Emptying a middle leaf merges it into its
   left neighbour, never into the leftmost leaf; then deleting from the
   top down empties each remaining leaf to the right in turn, and
   emptying the second leaf collapses the root onto the first. *)
let test_drain_collapses_root () =
  let db, rel, t = mk () in
  for k = 1 to 1_200 do
    Pbt.insert t ~key:k ~payload:(k * 3)
  done;
  checki "two levels" 2 (Pbt.height t);
  let splits = (Pbt.stats t).Pbt.splits in
  check "several leaves" true (splits >= 4);
  let pairs lo hi = List.init (hi - lo + 1) (fun i -> (lo + i, (lo + i) * 3)) in
  for k = 301 to 450 do
    check "delete" true (Pbt.delete t ~key:k ~payload:(k * 3))
  done;
  checki "middle leaf merged" 1 (Pbt.stats t).Pbt.merges;
  check "chain intact around the gap" true (entries t = pairs 1 300 @ pairs 451 1_200);
  check "range across the gap" true (Pbt.range t ~lo:290 ~hi:460 = pairs 290 300 @ pairs 451 460);
  for k = 1_200 downto 151 do
    if k < 301 || k > 450 then check "delete" true (Pbt.delete t ~key:k ~payload:(k * 3))
  done;
  checki "one merge per emptied leaf" splits (Pbt.stats t).Pbt.merges;
  checki "root collapsed" 1 (Pbt.height t);
  checki "survivors" 150 (Pbt.entry_count t);
  let survivors = pairs 1 150 in
  check "surviving entries" true (entries t = survivors);
  check "range over survivors" true (Pbt.range t ~lo:100 ~hi:2_000 = pairs 100 150);
  check_list "drained key gone" [] (Pbt.lookup t ~key:151);
  check "survivor mem" true (Pbt.mem t ~key:150 ~payload:450);
  Wal.flush db.Db.wal ~sync:true;
  Db.crash db;
  Walcodec.redo db ~since_lsn:0;
  let t' = Walcodec.restore_index db ~rel in
  checki "collapse survives recovery" 1 (Pbt.height t');
  check "recovered survivors" true (entries t' = survivors);
  Pbt.insert t' ~key:500 ~payload:1;
  check_list "usable after collapse" [ 1 ] (Pbt.lookup t' ~key:500)

(* ---------------- array-vs-paged engine equivalence ---------------- *)

(* The same deterministic workload through the same engine on the two
   index implementations must produce identical op results and identical
   reads, secondary lookups, pk ranges and scan counts — before and
   after a crash+recover on both sides. *)
let engine_equiv key () =
  let _, (module E : Engine.S) = Engine.resolve_exn key in
  let mk_side index =
    let db = Db.create ~buffer_pages:256 ~index () in
    let eng = E.create db in
    let table = E.create_table eng ~name:"t" ~pk_col:0 ~secondary:[ 1 ] () in
    (db, eng, table)
  in
  let dba, ea, ta = mk_side `Array in
  let dbp, ep, tp = mk_side `Paged in
  let row k g = [| Value.Int k; Value.Int g; Value.Str "x" |] in
  let one eng table op =
    let txn = E.begin_txn eng in
    let r =
      match op with
      | `Insert (k, g) -> E.insert eng txn table (row k g)
      | `Update (k, g) ->
          E.update eng txn table ~pk:k (fun r ->
              let r = Array.copy r in
              r.(1) <- Value.Int g;
              r)
      | `Delete k -> E.delete eng txn table ~pk:k
    in
    (match r with
    | Ok () -> E.commit eng txn |> Result.get_ok
    | Error _ -> E.abort eng txn);
    Result.is_ok r
  in
  let state = ref 3 in
  let lcg bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  for _ = 1 to 400 do
    let k = 1 + lcg 60 and g = lcg 7 in
    let op =
      match lcg 10 with
      | 0 | 1 | 2 | 3 -> `Insert (k, g)
      | 4 | 5 | 6 -> `Update (k, g)
      | _ -> `Delete k
    in
    let ra = one ea ta op and rp = one ep tp op in
    check "op outcome agrees" true (ra = rp)
  done;
  let snapshot eng table =
    let txn = E.begin_txn eng in
    let reads = List.init 60 (fun i -> E.read eng txn table ~pk:(i + 1)) in
    let groups =
      List.init 7 (fun g ->
          E.lookup eng txn table ~col:1 ~key:g |> List.sort compare)
    in
    let rp = E.range_pk eng txn table ~lo:5 ~hi:40 in
    let visible = E.scan eng txn table (fun _ -> ()) in
    E.commit eng txn |> Result.get_ok;
    (reads, groups, rp, visible)
  in
  let sa = snapshot ea ta and sp = snapshot ep tp in
  check "pre-crash state agrees" true (sa = sp);
  Db.crash dba;
  E.recover ea;
  Db.crash dbp;
  E.recover ep;
  let sa' = snapshot ea ta and sp' = snapshot ep tp in
  check "post-recovery state agrees" true (sa' = sp');
  check "recovery preserved the committed state" true (sa = sa')

let suite =
  [
    Alcotest.test_case "insert/lookup" `Quick test_insert_lookup;
    Alcotest.test_case "duplicate keys" `Quick test_duplicates;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "range scan" `Quick test_range;
    Alcotest.test_case "splits and height" `Quick test_splits_and_height;
    Alcotest.test_case "random insert order + sorted iter" `Quick
      test_random_order_inserts;
    Alcotest.test_case "survives buffer pressure" `Quick
      test_survives_buffer_pressure;
    Alcotest.test_case "merge on emptied leaf" `Quick test_merge_on_emptied_leaf;
    Alcotest.test_case "crash recovery is byte-exact" `Quick
      test_recovery_byte_exact;
    Alcotest.test_case "checkpoint then split recovers" `Quick
      test_checkpoint_then_split;
    Alcotest.test_case "replay: middle insert into a full leaf, then its split" `Quick
      test_replay_middle_insert_and_split;
    Alcotest.test_case "index crash points recover to flushed prefix" `Quick
      test_crash_points;
    QCheck_alcotest.to_alcotest qcheck_paged_model;
    Alcotest.test_case "multi-level: every prefix length, model probes" `Quick
      test_multilevel_prefix_lengths;
    QCheck_alcotest.to_alcotest qcheck_multilevel_model;
    Alcotest.test_case "three levels: routing against real ref keys" `Quick
      test_three_levels;
    Alcotest.test_case "drain two levels until the root collapses" `Quick
      test_drain_collapses_root;
    Alcotest.test_case "si: array vs paged equivalence" `Quick (engine_equiv "si");
    Alcotest.test_case "si-cv: array vs paged equivalence" `Quick
      (engine_equiv "si-cv");
    Alcotest.test_case "sias: array vs paged equivalence" `Quick
      (engine_equiv "sias");
    Alcotest.test_case "sias-v: array vs paged equivalence" `Quick
      (engine_equiv "sias-v");
  ]
