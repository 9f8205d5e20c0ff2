(* Tests for the storage substrate: slotted pages, buffer pool, heap
   files and the background writer. *)

open Sias_storage
module Device = Flashsim.Device
module Blocktrace = Flashsim.Blocktrace
module Simclock = Sias_util.Simclock

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let bytes_of s = Bytes.of_string s

(* ---------------- Tid ---------------- *)

let test_tid_roundtrip () =
  let t = Tid.make ~block:123456 ~slot:789 in
  let t' = Tid.of_int (Tid.to_int t) in
  check "roundtrip" true (Tid.equal t t');
  checki "block" 123456 (Tid.block t');
  checki "slot" 789 (Tid.slot t');
  check "invalid is invalid" true (Tid.is_invalid Tid.invalid);
  check "normal not invalid" false (Tid.is_invalid t);
  check "ordering" true (Tid.compare (Tid.make ~block:1 ~slot:9) (Tid.make ~block:2 ~slot:0) < 0)

let test_tid_bounds () =
  Alcotest.check_raises "negative block" (Invalid_argument "Tid.make") (fun () ->
      ignore (Tid.make ~block:(-1) ~slot:0));
  Alcotest.check_raises "slot too big" (Invalid_argument "Tid.make") (fun () ->
      ignore (Tid.make ~block:0 ~slot:65536))

(* ---------------- Page ---------------- *)

let test_page_insert_read () =
  let p = Page.create ~size:512 in
  let s1 = Page.insert p (bytes_of "hello") in
  let s2 = Page.insert p (bytes_of "world!") in
  Alcotest.(check (option int)) "slot 0" (Some 0) s1;
  Alcotest.(check (option int)) "slot 1" (Some 1) s2;
  Alcotest.(check (option bytes)) "read 0" (Some (bytes_of "hello")) (Page.read p 0);
  Alcotest.(check (option bytes)) "read 1" (Some (bytes_of "world!")) (Page.read p 1);
  checki "live" 2 (Page.live_count p)

let test_page_delete_and_reuse () =
  let p = Page.create ~size:512 in
  let _ = Page.insert p (bytes_of "aaaa") in
  let _ = Page.insert p (bytes_of "bbbb") in
  Page.delete p 0;
  Alcotest.(check (option bytes)) "deleted reads none" None (Page.read p 0);
  checki "live after delete" 1 (Page.live_count p);
  (* slot 0 is reused *)
  Alcotest.(check (option int)) "slot reuse" (Some 0) (Page.insert p (bytes_of "cccc"));
  Alcotest.(check (option bytes)) "reused readable" (Some (bytes_of "cccc")) (Page.read p 0)

let test_page_update_in_place () =
  let p = Page.create ~size:512 in
  let _ = Page.insert p (bytes_of "0123456789") in
  check "same size fits" true (Page.update p 0 (bytes_of "abcdefghij"));
  Alcotest.(check (option bytes)) "updated" (Some (bytes_of "abcdefghij")) (Page.read p 0);
  check "shorter fits" true (Page.update p 0 (bytes_of "xyz"));
  Alcotest.(check (option bytes)) "shortened" (Some (bytes_of "xyz")) (Page.read p 0);
  check "longer rejected" false (Page.update p 0 (bytes_of "0123456789abcdef"))

let test_page_fills_up () =
  let p = Page.create ~size:256 in
  let item = Bytes.make 40 'x' in
  let n = ref 0 in
  let continue = ref true in
  while !continue do
    match Page.insert p item with
    | Some _ -> incr n
    | None -> continue := false
  done;
  check "several fit" true (!n >= 4);
  check "free space small now" true (Page.free_space p < 44);
  checki "live matches" !n (Page.live_count p)

let test_page_compaction () =
  let p = Page.create ~size:256 in
  let item = Bytes.make 40 'a' in
  let slots = ref [] in
  let continue = ref true in
  while !continue do
    match Page.insert p item with
    | Some s -> slots := s :: !slots
    | None -> continue := false
  done;
  (* free every other item, creating holes *)
  List.iteri (fun i s -> if i mod 2 = 0 then Page.delete p s) !slots;
  (* a larger item only fits after compaction *)
  let big = Bytes.make 60 'b' in
  check "fits via compaction" true (Page.insert p big <> None);
  (* survivors unharmed *)
  List.iteri
    (fun i s ->
      if i mod 2 = 1 then
        Alcotest.(check (option bytes)) "survivor" (Some item) (Page.read p s))
    !slots

(* Key-ordered slots (index pages): [insert_at] opens a slot at its
   position and [remove] closes one, each moving the slots above; the
   holes [remove] leaves are reclaimed by the compaction of a later
   [insert_at], which keeps slot order. *)
let test_page_ordered_slots () =
  let p = Page.create ~size:256 in
  let items () =
    List.init (Page.slot_count p) (fun i -> Bytes.to_string (Option.get (Page.read p i)))
  in
  let at pos s = check ("insert_at " ^ s) true (Page.insert_at p pos (bytes_of s)) in
  at 0 "b";
  at 1 "d";
  at 0 "a";
  at 2 "c";
  Alcotest.(check (list string)) "in position order" [ "a"; "b"; "c"; "d" ] (items ());
  Page.remove p 1;
  Alcotest.(check (list string)) "removal shifts down" [ "a"; "c"; "d" ] (items ());
  checki "no dead slot" (Page.slot_count p) (Page.live_count p);
  let item c = Bytes.make 40 c in
  let n = ref 0 in
  while Page.insert_at p 1 (item (Char.chr (Char.code 'e' + !n))) do
    incr n
  done;
  checki "page full, unchanged" (3 + !n) (Page.slot_count p);
  (* free two 40-byte items: a 60-byte one fits only after compaction *)
  Page.remove p 1;
  Page.remove p 1;
  check "fits via compaction" true (Page.insert_at p 2 (Bytes.make 60 'z'));
  let after = items () in
  checki "slots" (2 + !n) (List.length after);
  Alcotest.(check string) "first kept" "a" (List.hd after);
  Alcotest.(check string) "placed at its position" (String.make 60 'z') (List.nth after 2);
  Alcotest.(check (list string)) "top kept" [ "c"; "d" ]
    (List.filteri (fun i _ -> i >= List.length after - 2) after);
  Alcotest.check_raises "position past the end"
    (Invalid_argument "Page.insert_at: position out of range") (fun () ->
      ignore (Page.insert_at p (Page.slot_count p + 1) (bytes_of "x")));
  Alcotest.check_raises "remove out of range"
    (Invalid_argument "Page.remove: slot out of range") (fun () ->
      Page.remove p (Page.slot_count p))

let test_page_copy_independent () =
  let p = Page.create ~size:256 in
  let _ = Page.insert p (bytes_of "orig") in
  let q = Page.copy p in
  ignore (Page.update q 0 (bytes_of "diff"));
  Alcotest.(check (option bytes)) "original intact" (Some (bytes_of "orig")) (Page.read p 0)

let test_page_lsn () =
  let p = Page.create ~size:256 in
  checki "initial lsn" 0 (Page.lsn p);
  Page.set_lsn p 42;
  checki "set lsn" 42 (Page.lsn p)

(* Model-based property: a page behaves like a map slot -> bytes. *)
let qcheck_page_model =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun n -> `Insert (Bytes.make (1 + (n mod 50)) 'i')) small_nat);
          (2, map (fun s -> `Delete s) (int_bound 30));
          (2, map2 (fun s n -> `Update (s, Bytes.make (1 + (n mod 50)) 'u')) (int_bound 30) small_nat);
        ])
  in
  QCheck.Test.make ~name:"page behaves like a slot map" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 120) gen_op))
    (fun ops ->
      let p = Page.create ~size:1024 in
      let model : (int, bytes) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun op ->
          match op with
          | `Insert item -> (
              match Page.insert p item with
              | Some s -> Hashtbl.replace model s item
              | None -> ())
          | `Delete s ->
              if s < Page.slot_count p then begin
                Page.delete p s;
                Hashtbl.remove model s
              end
          | `Update (s, item) ->
              if Hashtbl.mem model s then
                if Page.update p s item then Hashtbl.replace model s item)
        ops;
      Hashtbl.fold
        (fun s item acc -> acc && Page.read p s = Some item)
        model
        (Page.live_count p = Hashtbl.length model))

(* ---------------- Buffer pool ---------------- *)

let mk_pool ?(capacity = 8) () =
  let clock = Simclock.create () in
  let device = Device.ssd_x25e ~blocks:256 () in
  (Bufpool.create ~device ~clock ~capacity_pages:capacity ~page_size:1024 (), clock, device)

let test_pool_hit_miss () =
  let pool, _, _ = mk_pool () in
  Bufpool.with_page pool ~rel:0 ~block:0 (fun _ -> ());
  Bufpool.with_page pool ~rel:0 ~block:0 (fun _ -> ());
  let s = Bufpool.stats pool in
  checki "one miss" 1 s.Bufpool.misses;
  checki "one hit" 1 s.Bufpool.hits

let test_pool_persistence_across_eviction () =
  let pool, _, _ = mk_pool ~capacity:4 () in
  Bufpool.with_page pool ~rel:0 ~block:0 (fun p ->
      ignore (Page.insert p (bytes_of "persisted")));
  Bufpool.mark_dirty pool ~rel:0 ~block:0;
  (* touch enough other pages to evict block 0 *)
  for b = 1 to 10 do
    Bufpool.with_page pool ~rel:0 ~block:b (fun _ -> ())
  done;
  check "evicted" false (Bufpool.resident pool ~rel:0 ~block:0);
  Bufpool.with_page pool ~rel:0 ~block:0 (fun p ->
      Alcotest.(check (option bytes)) "data survived eviction" (Some (bytes_of "persisted"))
        (Page.read p 0))

let test_pool_eviction_writes_dirty () =
  let pool, _, device = mk_pool ~capacity:4 () in
  Bufpool.with_page pool ~rel:0 ~block:0 (fun p -> ignore (Page.insert p (bytes_of "d")));
  Bufpool.mark_dirty pool ~rel:0 ~block:0;
  for b = 1 to 10 do
    Bufpool.with_page pool ~rel:0 ~block:b (fun _ -> ())
  done;
  check "device got the write-back" true (Blocktrace.write_count (Device.trace device) >= 1)

let test_pool_io_advances_clock () =
  let pool, clock, _ = mk_pool ~capacity:4 () in
  Bufpool.with_page pool ~rel:0 ~block:0 (fun p -> ignore (Page.insert p (bytes_of "x")));
  Bufpool.mark_dirty pool ~rel:0 ~block:0;
  Bufpool.flush_block pool ~rel:0 ~block:0 ~sync:true;
  (* a synchronous flush stalls the caller *)
  check "clock advanced" true (Simclock.now clock > 0.0);
  let t = Simclock.now clock in
  Bufpool.flush_all pool ~sync:false;
  Alcotest.(check (float 1e-12)) "async flush does not stall" t (Simclock.now clock)

let test_pool_dirty_tracking () =
  let pool, _, _ = mk_pool () in
  Bufpool.with_page pool ~rel:1 ~block:0 (fun p -> ignore (Page.insert p (bytes_of "a")));
  Bufpool.mark_dirty pool ~rel:1 ~block:0;
  checki "one dirty" 1 (Bufpool.dirty_count pool);
  check "is dirty" true (Bufpool.is_dirty pool ~rel:1 ~block:0);
  Bufpool.flush_all pool ~sync:false;
  checki "clean after checkpoint" 0 (Bufpool.dirty_count pool);
  check "on disk" true (Bufpool.on_disk pool ~rel:1 ~block:0)

let test_pool_drop_cache_loses_unflushed () =
  let pool, _, _ = mk_pool () in
  Bufpool.with_page pool ~rel:0 ~block:0 (fun p -> ignore (Page.insert p (bytes_of "lost")));
  Bufpool.mark_dirty pool ~rel:0 ~block:0;
  Bufpool.with_page pool ~rel:0 ~block:1 (fun p -> ignore (Page.insert p (bytes_of "safe")));
  Bufpool.mark_dirty pool ~rel:0 ~block:1;
  Bufpool.flush_block pool ~rel:0 ~block:1 ~sync:false;
  Bufpool.drop_cache pool;
  Bufpool.with_page pool ~rel:0 ~block:0 (fun p ->
      Alcotest.(check (option bytes)) "unflushed lost" None (Page.read p 0));
  Bufpool.with_page pool ~rel:0 ~block:1 (fun p ->
      Alcotest.(check (option bytes)) "flushed survived" (Some (bytes_of "safe"))
        (Page.read p 0))

let test_pool_rel_regions_disjoint () =
  let pool, _, _ = mk_pool () in
  let s0 = Bufpool.sector_of pool ~rel:0 ~block:65535 in
  let s1 = Bufpool.sector_of pool ~rel:1 ~block:0 in
  check "regions disjoint" true (s1 > s0)

(* ---------------- frame and ring buffer reuse ----------------

   A miss loads the page image into the buffer of the frame (or ring
   entry) that receives it; these pin down that no bytes of the buffer's
   previous page leak through and that no buffer is reloaded while a
   callback still reads it. *)

(* Add items whose bytes depend on [block] to its page; returns the
   image a flush will make durable (the page as written, checksummed). *)
let fill_block pool block =
  let image =
    Bufpool.with_page pool ~rel:0 ~block (fun p ->
        ignore (Page.insert p (Bytes.make 300 (Char.chr (65 + (block mod 26)))));
        ignore (Page.insert p (bytes_of (Printf.sprintf "block-%d" block)));
        let d = Page.copy p in
        Page.stamp_checksum d;
        Page.to_bytes d)
  in
  Bufpool.mark_dirty pool ~rel:0 ~block;
  image

let empty_image = Page.to_bytes (Page.create ~size:1024)

let test_pool_reload_equals_durable () =
  let pool, _, _ = mk_pool ~capacity:4 () in
  let images = Array.init 12 (fill_block pool) in
  Bufpool.flush_all pool ~sync:false;
  (* every reload below evicts a frame that held another block *)
  for round = 1 to 2 do
    for b = 0 to Array.length images - 1 do
      Bufpool.with_page pool ~rel:0 ~block:b (fun p ->
          Alcotest.(check bytes) (Printf.sprintf "round %d block %d" round b) images.(b)
            (Page.to_bytes p))
    done
  done

let test_pool_fresh_block_reads_empty () =
  let pool, _, _ = mk_pool ~capacity:4 () in
  for b = 0 to 39 do
    ignore (fill_block pool b)
  done;
  (* frames: blocks never written land in frames that held data *)
  for b = 100 to 107 do
    Bufpool.with_page pool ~rel:0 ~block:b (fun p ->
        Alcotest.(check bytes) (Printf.sprintf "frame, block %d" b) empty_image (Page.to_bytes p))
  done;
  (* ring: cycle evicted blocks through the ring until its buffers are
     recycled, then read never-written blocks through it *)
  for b = 0 to 35 do
    Bufpool.with_page_ro pool ~rel:0 ~block:b ignore
  done;
  for b = 200 to 207 do
    Bufpool.with_page_ro pool ~rel:0 ~block:b (fun p ->
        Alcotest.(check bytes) (Printf.sprintf "ring, block %d" b) empty_image (Page.to_bytes p))
  done;
  (* trim: a resident frame and a ring copy both read as empty *)
  ignore (fill_block pool 300);
  Bufpool.trim_block pool ~rel:0 ~block:300;
  Bufpool.with_page pool ~rel:0 ~block:300 (fun p ->
      Alcotest.(check bytes) "trimmed, resident" empty_image (Page.to_bytes p));
  Bufpool.with_page_ro pool ~rel:0 ~block:3 ignore;
  Bufpool.trim_block pool ~rel:0 ~block:3;
  Bufpool.with_page_ro pool ~rel:0 ~block:3 (fun p ->
      Alcotest.(check bytes) "trimmed, ring" empty_image (Page.to_bytes p))

let test_pool_nested_ring_miss_keeps_outer () =
  let pool, _, _ = mk_pool ~capacity:4 () in
  let images = Array.init 80 (fill_block pool) in
  Bufpool.flush_all pool ~sync:false;
  (* fill the ring with blocks 0..31; block 0 heads its FIFO *)
  for b = 0 to 31 do
    Bufpool.with_page_ro pool ~rel:0 ~block:b ignore
  done;
  let nested_misses first =
    for b = first to first + 39 do
      Bufpool.with_page_ro pool ~rel:0 ~block:b (fun p ->
          Alcotest.(check bytes) (Printf.sprintf "inner block %d" b) images.(b)
            (Page.to_bytes p))
    done
  in
  (* outer on a ring hit: the first nested miss evicts its entry *)
  Bufpool.with_page_ro pool ~rel:0 ~block:0 (fun p ->
      let before = Page.to_bytes p in
      nested_misses 32;
      Alcotest.(check bytes) "outer hit intact" before (Page.to_bytes p);
      Alcotest.(check bytes) "outer hit is block 0" images.(0) before);
  (* outer on a ring miss: the nested misses cycle the whole ring past it *)
  Bufpool.with_page_ro pool ~rel:0 ~block:75 (fun p ->
      nested_misses 0;
      Alcotest.(check bytes) "outer miss intact" images.(75) (Page.to_bytes p))

(* A fixed mix of pinned writes and reads, nested ring reads, flushes and
   trims over a pool far smaller than the blocks it touches. The counts
   were taken from the pool before misses reused buffers: reuse must not
   move a single hit, miss, eviction or flush. *)
let test_pool_scripted_counts () =
  let pool, _, _ = mk_pool () in
  let rng = Sias_util.Rng.create 17 in
  for i = 0 to 2999 do
    let block = Sias_util.Rng.int rng 64 in
    match i mod 7 with
    | 0 | 1 -> ignore (fill_block pool block)
    | 2 | 5 -> Bufpool.with_page pool ~rel:0 ~block ignore
    | 3 -> Bufpool.with_page_ro pool ~rel:0 ~block ignore
    | 4 ->
        Bufpool.with_page_ro pool ~rel:0 ~block (fun _ ->
            Bufpool.with_page_ro pool ~rel:0 ~block:((block + 1) mod 64) ignore)
    | _ ->
        if i mod 49 = 6 then Bufpool.trim_block pool ~rel:0 ~block
        else Bufpool.flush_block pool ~rel:0 ~block ~sync:true
  done;
  let s = Bufpool.stats pool in
  checki "hits" 797 s.Bufpool.hits;
  checki "misses" 2203 s.Bufpool.misses;
  checki "evictions" 1467 s.Bufpool.evictions;
  checki "flushes" 791 s.Bufpool.flushes

(* ---------------- Heapfile ---------------- *)

let mk_heap placement =
  let pool, clock, device = mk_pool ~capacity:64 () in
  (Heapfile.create pool ~rel:0 ~placement, pool, clock, device)

let test_heap_insert_read_roundtrip () =
  let heap, _, _, _ = mk_heap Heapfile.Append_only in
  let tids = List.init 50 (fun i -> Heapfile.insert heap (bytes_of (Printf.sprintf "row-%03d" i))) in
  List.iteri
    (fun i tid ->
      Alcotest.(check (option bytes))
        "roundtrip"
        (Some (bytes_of (Printf.sprintf "row-%03d" i)))
        (Heapfile.read heap tid))
    tids

(* [with_item_ro] judges an item where it lies: the same bytes as
   [read_ro] through the same ring access, on a ring miss and a ring
   hit, and [None] (the callback never runs) wherever [read_ro] has no
   item. *)
let test_heap_with_item_ro () =
  let pool, _, _ = mk_pool ~capacity:4 () in
  let heap = Heapfile.create pool ~rel:0 ~placement:Heapfile.Append_only in
  let tids =
    Array.init 120 (fun i ->
        Heapfile.insert heap (Bytes.make (60 + (i mod 30)) (Char.chr (65 + (i mod 26)))))
  in
  Bufpool.flush_all pool ~sync:false;
  check "items span blocks beyond the pool" true (Heapfile.nblocks heap > 8);
  let in_frame tid = Heapfile.with_item_ro heap tid (fun buf off len -> Bytes.sub buf off len) in
  let counted f =
    let s0 = Bufpool.stats pool in
    let v = f () in
    let s1 = Bufpool.stats pool in
    (v, s1.Bufpool.hits - s0.Bufpool.hits, s1.Bufpool.misses - s0.Bufpool.misses)
  in
  let same what expect (got, hits, misses) (want_hits, want_misses) =
    Alcotest.(check (option bytes)) what expect got;
    checki (what ^ ": hits") want_hits hits;
    checki (what ^ ": misses") want_misses misses
  in
  (* block 0 left the four frames long ago: in the frame first (a ring
     miss), then copied (a ring hit) *)
  let t0 = tids.(0) in
  let expect0 = Some (Bytes.make 60 'A') in
  same "in frame, ring miss" expect0 (counted (fun () -> in_frame t0)) (0, 1);
  same "copy, ring hit" expect0 (counted (fun () -> Heapfile.read_ro heap t0)) (1, 0);
  (* and the other way round on block 1 *)
  let t1 = Option.get (Array.find_opt (fun tid -> Tid.block tid = 1) tids) in
  let copy = counted (fun () -> Heapfile.read_ro heap t1) in
  let expect1, _, _ = copy in
  check "block 1 has an item" true (expect1 <> None);
  same "copy, ring miss" expect1 copy (0, 1);
  same "in frame, ring hit" expect1 (counted (fun () -> in_frame t1)) (1, 0);
  (* no item: the callback must not run *)
  let never tid = Heapfile.with_item_ro heap tid (fun _ _ _ -> Alcotest.fail "callback ran") in
  Heapfile.delete heap tids.(1);
  check "dead slot" true (never tids.(1) = None);
  check "dead slot, copy" true (Heapfile.read_ro heap tids.(1) = None);
  let discarded = Tid.block tids.(Array.length tids / 2) in
  Heapfile.discard_block heap discarded;
  check "discarded block" true (never tids.(Array.length tids / 2) = None);
  check "block out of range" true
    (never (Tid.make ~block:(Heapfile.nblocks heap + 3) ~slot:0) = None);
  check "invalid tid" true (never Tid.invalid = None);
  check "slot out of range" true (never (Tid.make ~block:0 ~slot:4000) = None)

let test_heap_append_only_monotone_blocks () =
  let heap, _, _, _ = mk_heap Heapfile.Append_only in
  let item = Bytes.make 100 'z' in
  let last_block = ref 0 in
  for _ = 1 to 100 do
    let tid = Heapfile.insert heap item in
    check "blocks never decrease" true (Tid.block tid >= !last_block);
    last_block := Tid.block tid
  done

let test_heap_free_space_first_refills () =
  let heap, _, _, _ = mk_heap Heapfile.Free_space_first in
  let item = Bytes.make 100 'z' in
  let tids = ref [] in
  for _ = 1 to 50 do
    tids := Heapfile.insert heap item :: !tids
  done;
  let used_blocks = Heapfile.nblocks heap in
  (* free a batch of early rows, then insert again: old pages get reused *)
  List.iteri (fun i tid -> if i mod 2 = 0 then Heapfile.delete heap tid) (List.rev !tids);
  for _ = 1 to 20 do
    ignore (Heapfile.insert heap item)
  done;
  checki "no growth thanks to holes" used_blocks (Heapfile.nblocks heap)

let test_heap_append_only_never_refills () =
  let heap, _, _, _ = mk_heap Heapfile.Append_only in
  let item = Bytes.make 100 'z' in
  let tids = ref [] in
  for _ = 1 to 50 do
    tids := Heapfile.insert heap item :: !tids
  done;
  let used_blocks = Heapfile.nblocks heap in
  List.iter (fun tid -> Heapfile.delete heap tid) !tids;
  for _ = 1 to 50 do
    ignore (Heapfile.insert heap item)
  done;
  check "append-only file grows" true (Heapfile.nblocks heap > used_blocks)

let test_heap_update_in_place () =
  let heap, _, _, _ = mk_heap Heapfile.Free_space_first in
  let tid = Heapfile.insert heap (bytes_of "0123456789") in
  check "fits" true (Heapfile.update_in_place heap tid (bytes_of "abcdefghij"));
  Alcotest.(check (option bytes)) "content" (Some (bytes_of "abcdefghij")) (Heapfile.read heap tid)

let test_heap_iter_sees_live_only () =
  let heap, _, _, _ = mk_heap Heapfile.Append_only in
  let t1 = Heapfile.insert heap (bytes_of "keep") in
  let t2 = Heapfile.insert heap (bytes_of "kill") in
  Heapfile.delete heap t2;
  let seen = ref [] in
  Heapfile.iter heap (fun tid item -> seen := (tid, Bytes.to_string item) :: !seen);
  Alcotest.(check int) "one live row" 1 (List.length !seen);
  check "it is the right one" true (Tid.equal (fst (List.hd !seen)) t1)

let test_heap_restore () =
  let pool, _, _ =
    let clock = Simclock.create () in
    let device = Device.ssd_x25e ~blocks:256 () in
    (Bufpool.create ~device ~clock ~capacity_pages:64 ~page_size:1024 (), clock, device)
  in
  let heap = Heapfile.create pool ~rel:3 ~placement:Heapfile.Append_only in
  let tids = List.init 30 (fun i -> Heapfile.insert heap (bytes_of (string_of_int i))) in
  let restored =
    Heapfile.restore pool ~rel:3 ~placement:Heapfile.Append_only
      ~nblocks:(Heapfile.nblocks heap)
  in
  List.iteri
    (fun i tid ->
      Alcotest.(check (option bytes)) "restored row" (Some (bytes_of (string_of_int i)))
        (Heapfile.read restored tid))
    tids

(* ---------------- Bgwriter ---------------- *)

let test_bgwriter_t1_flushes_periodically () =
  let clock = Simclock.create () in
  let device = Device.ssd_x25e ~blocks:256 () in
  let pool = Bufpool.create ~device ~clock ~capacity_pages:16 ~page_size:1024 () in
  let bg =
    Bgwriter.create pool ~clock
      ~policy:(Bgwriter.T1_bgwriter { interval = 1.0; max_pages = 100 })
      ~checkpoint_interval:1000.0 ()
  in
  Bufpool.with_page pool ~rel:0 ~block:0 (fun p -> ignore (Page.insert p (bytes_of "x")));
  Bufpool.mark_dirty pool ~rel:0 ~block:0;
  Bgwriter.tick bg;
  checki "nothing due yet" 1 (Bufpool.dirty_count pool);
  Simclock.advance clock 1.5;
  Bgwriter.tick bg;
  checki "flushed after interval" 0 (Bufpool.dirty_count pool);
  check "bgwriter ran" true (Bgwriter.bgwriter_rounds bg >= 1)

let test_bgwriter_t2_waits_for_checkpoint () =
  let clock = Simclock.create () in
  let device = Device.ssd_x25e ~blocks:256 () in
  let pool = Bufpool.create ~device ~clock ~capacity_pages:16 ~page_size:1024 () in
  let bg =
    Bgwriter.create pool ~clock ~policy:Bgwriter.T2_checkpoint_only
      ~checkpoint_interval:10.0 ()
  in
  Bufpool.with_page pool ~rel:0 ~block:0 (fun p -> ignore (Page.insert p (bytes_of "x")));
  Bufpool.mark_dirty pool ~rel:0 ~block:0;
  Simclock.advance clock 5.0;
  Bgwriter.tick bg;
  checki "dirty until checkpoint" 1 (Bufpool.dirty_count pool);
  Simclock.advance clock 6.0;
  Bgwriter.tick bg;
  checki "checkpoint flushed" 0 (Bufpool.dirty_count pool);
  checki "one checkpoint" 1 (Bgwriter.checkpoints bg)

let suite =
  [
    Alcotest.test_case "tid roundtrip" `Quick test_tid_roundtrip;
    Alcotest.test_case "tid bounds" `Quick test_tid_bounds;
    Alcotest.test_case "page insert/read" `Quick test_page_insert_read;
    Alcotest.test_case "page delete and slot reuse" `Quick test_page_delete_and_reuse;
    Alcotest.test_case "page update in place" `Quick test_page_update_in_place;
    Alcotest.test_case "page fills up" `Quick test_page_fills_up;
    Alcotest.test_case "page compaction" `Quick test_page_compaction;
    Alcotest.test_case "page key-ordered slots" `Quick test_page_ordered_slots;
    Alcotest.test_case "page copy independence" `Quick test_page_copy_independent;
    Alcotest.test_case "page lsn" `Quick test_page_lsn;
    QCheck_alcotest.to_alcotest qcheck_page_model;
    Alcotest.test_case "pool hit/miss" `Quick test_pool_hit_miss;
    Alcotest.test_case "pool persistence across eviction" `Quick test_pool_persistence_across_eviction;
    Alcotest.test_case "pool eviction writes dirty" `Quick test_pool_eviction_writes_dirty;
    Alcotest.test_case "pool sync I/O advances clock" `Quick test_pool_io_advances_clock;
    Alcotest.test_case "pool dirty tracking" `Quick test_pool_dirty_tracking;
    Alcotest.test_case "pool crash drops unflushed" `Quick test_pool_drop_cache_loses_unflushed;
    Alcotest.test_case "pool relation regions disjoint" `Quick test_pool_rel_regions_disjoint;
    Alcotest.test_case "pool reload equals durable image" `Quick test_pool_reload_equals_durable;
    Alcotest.test_case "pool fresh block reads empty" `Quick test_pool_fresh_block_reads_empty;
    Alcotest.test_case "pool nested ring miss keeps outer" `Quick
      test_pool_nested_ring_miss_keeps_outer;
    Alcotest.test_case "pool scripted hit/miss counts" `Quick test_pool_scripted_counts;
    Alcotest.test_case "heap insert/read roundtrip" `Quick test_heap_insert_read_roundtrip;
    Alcotest.test_case "heap in-frame item reads" `Quick test_heap_with_item_ro;
    Alcotest.test_case "heap append-only monotone" `Quick test_heap_append_only_monotone_blocks;
    Alcotest.test_case "heap FSM refills holes" `Quick test_heap_free_space_first_refills;
    Alcotest.test_case "heap append-only never refills" `Quick test_heap_append_only_never_refills;
    Alcotest.test_case "heap update in place" `Quick test_heap_update_in_place;
    Alcotest.test_case "heap iter live only" `Quick test_heap_iter_sees_live_only;
    Alcotest.test_case "heap restore" `Quick test_heap_restore;
    Alcotest.test_case "bgwriter t1 flushes periodically" `Quick test_bgwriter_t1_flushes_periodically;
    Alcotest.test_case "bgwriter t2 waits for checkpoint" `Quick test_bgwriter_t2_waits_for_checkpoint;
  ]
