module Device = Flashsim.Device
module Blocktrace = Flashsim.Blocktrace
module Faultdev = Flashsim.Faultdev
module Simclock = Sias_util.Simclock
module Bus = Sias_obs.Bus
module Crashpoint = Sias_chaos.Crashpoint

type key = { rel : int; block : int }

exception Corrupt_page of { rel : int; block : int }
exception No_free_frames of { capacity : int }

let () =
  Printexc.register_printer (function
    | Corrupt_page { rel; block } ->
        Some
          (Printf.sprintf
             "Bufpool.Corrupt_page: page (rel %d, block %d) failed checksum \
              verification and could not be repaired from full-page writes"
             rel block)
    | No_free_frames { capacity } ->
        Some
          (Printf.sprintf
             "Bufpool.No_free_frames: all %d frames are pinned — the working \
              set of concurrently pinned pages exceeds the buffer pool"
             capacity)
    | _ -> None)

type frame = {
  idx : int;
  mutable key : key;
  page : Page.t; (* the frame's own buffer, reloaded in place on a miss *)
  mutable dirty : bool;
  mutable pin : int;
  mutable refbit : bool;
  mutable used : bool;
  mutable last_use : int;
}

(* A shard owns a contiguous slice of the frame array, its own mapping
   table, its own clock hands and its own hit/miss counters, guarded by
   its own lock. Pages hash to shards by key, so two domains touching
   different pages contend only when they collide on a shard — the
   per-CPU hash-partitioning of DragonflyBSD's niscache / PostgreSQL's
   buffer mapping partitions. With [shards = 1] (the default) the lock
   is never taken and the sweep order over the whole frame array is
   exactly the pre-sharding behavior, which the determinism goldens pin
   down. *)
type shard = {
  lo : int; (* first frame index owned by this shard *)
  n : int; (* frames owned *)
  lock : Mutex.t;
  index : (key, int) Hashtbl.t;
  mutable hand : int; (* clock-sweep offset in [0, n) *)
  mutable bg_hand : int; (* background-writer scan offset *)
  mutable tick : int; (* logical use counter for LRU-ish bgwriter order *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  flushes : int;
  read_stall_s : float;
  write_stall_s : float;
  read_retries : int;
  checksum_failures : int;
  pages_repaired : int;
  torn_pages : int;
}

(* [users] counts the [with_page_ro] callbacks running on [page]; a
   buffer is recycled only once it is out of the ring and unused. *)
type ring_entry = { page : Page.t; mutable users : int }

type t = {
  device : Device.t;
  clock : Simclock.t;
  page_size : int;
  os_cache_interval : float option;
  os_cache_pages : int;
  os_pending : (key, unit) Hashtbl.t;
  mutable os_next_flush : float;
  ring : (key, ring_entry) Hashtbl.t; (* small cache for ring-buffer reads *)
  ring_fifo : key Queue.t;
  mutable ring_spare : Page.t option;
      (* a buffer dropped from the ring that no callback holds: the next
         ring miss loads into it instead of allocating *)
  frames : frame array;
  shards : shard array;
  locking : bool; (* shards > 1: take the locks *)
  io_lock : Mutex.t;
      (* guards everything below the mapping layer: the simulated disk,
         device, sim clock, OS-cache model, fault bookkeeping and the
         I/O statistics. Acquired strictly after a shard lock. *)
  disk : (key, Page.t) Hashtbl.t; (* flushed page images *)
  bus : Bus.t option;
  faults : Faultdev.t option;
  torn_pending : (key, Page.t) Hashtbl.t;
      (* per page, the image that survives if a crash strikes now: the
         last write was torn, so a prefix of the new image spliced onto
         the previous durable content. Cleared by a later atomic write. *)
  trusted : (key, unit) Hashtbl.t;
      (* pages whose disk image this pool stamped itself and that cannot
         have been damaged since (no fault injection): read-in skips
         CRC32 re-verification for them. *)
  mutable repair : (rel:int -> block:int -> Page.t option) option;
  mutable flushes : int;
  mutable read_stall : float;
  mutable write_stall : float;
  mutable trims : int;
  mutable read_retries : int;
  mutable checksum_failures : int;
  mutable pages_repaired : int;
  mutable torn_pages : int;
}

(* Blocks in each relation's device region. *)
let rel_region_blocks = 65536

(* Transient read errors are retried this many times. *)
let max_read_retries = 4

let create ~device ~clock ~capacity_pages ?(page_size = 8192) ?os_cache_interval
    ?os_cache_pages ?bus ?faults ?(shards = 1) () =
  if capacity_pages <= 0 then invalid_arg "Bufpool.create: capacity must be positive";
  if shards < 1 then invalid_arg "Bufpool.create: shards must be >= 1";
  if shards > capacity_pages then
    invalid_arg "Bufpool.create: more shards than frames";
  let dummy_key = { rel = -1; block = -1 } in
  let frames =
    Array.init capacity_pages (fun idx ->
        {
          idx;
          key = dummy_key;
          page = Page.create ~size:page_size;
          dirty = false;
          pin = 0;
          refbit = false;
          used = false;
          last_use = 0;
        })
  in
  let shard_arr =
    Array.init shards (fun i ->
        (* contiguous slices, remainder spread over the first shards *)
        let base = capacity_pages / shards and extra = capacity_pages mod shards in
        let n = base + if i < extra then 1 else 0 in
        let lo = (i * base) + Stdlib.min i extra in
        {
          lo;
          n;
          lock = Mutex.create ();
          index = Hashtbl.create (2 * Stdlib.max 1 n);
          hand = 0;
          bg_hand = 0;
          tick = 0;
          hits = 0;
          misses = 0;
          evictions = 0;
        })
  in
  {
    device;
    clock;
    page_size;
    os_cache_interval;
    os_cache_pages = (match os_cache_pages with Some n -> n | None -> capacity_pages);
    os_pending = Hashtbl.create 1024;
    os_next_flush = (match os_cache_interval with Some i -> i | None -> infinity);
    ring = Hashtbl.create 64;
    ring_fifo = Queue.create ();
    ring_spare = None;
    frames;
    shards = shard_arr;
    locking = shards > 1;
    io_lock = Mutex.create ();
    disk = Hashtbl.create 1024;
    flushes = 0;
    read_stall = 0.0;
    write_stall = 0.0;
    trims = 0;
    read_retries = 0;
    checksum_failures = 0;
    pages_repaired = 0;
    torn_pages = 0;
    bus;
    faults;
    torn_pending = Hashtbl.create 64;
    trusted = Hashtbl.create 1024;
    repair = None;
  }

let page_size t = t.page_size
let device t = t.device
let now t = Simclock.now t.clock
let shard_count t = Array.length t.shards

let shard_of t key =
  if Array.length t.shards = 1 then t.shards.(0)
  else t.shards.(Hashtbl.hash key mod Array.length t.shards)

(* Lock helpers compile to straight calls of [f] in the single-shard
   configuration: the deterministic path pays nothing. Lock order is
   always shard(s) first, [io_lock] second. *)
let lock_shard t s = if t.locking then Mutex.lock s.lock
let unlock_shard t s = if t.locking then Mutex.unlock s.lock

let with_io t f =
  if not t.locking then f ()
  else begin
    Mutex.lock t.io_lock;
    match f () with
    | v ->
        Mutex.unlock t.io_lock;
        v
    | exception e ->
        Mutex.unlock t.io_lock;
        raise e
  end

let with_all_shards t f =
  if not t.locking then f ()
  else begin
    Array.iter (fun s -> Mutex.lock s.lock) t.shards;
    match f () with
    | v ->
        Array.iter (fun s -> Mutex.unlock s.lock) t.shards;
        v
    | exception e ->
        Array.iter (fun s -> Mutex.unlock s.lock) t.shards;
        raise e
  end

(* The bus with subscribers, if observability is on; publishing sites
   build their events only behind this check. *)
let obs t =
  match t.bus with Some b when Bus.active b -> Some b | _ -> None

let sectors_per_page t = t.page_size / 512

let sector_of t ~rel ~block =
  ((rel * rel_region_blocks) + block) * sectors_per_page t

let submit_io t ~sync op key =
  let now = Simclock.now t.clock in
  let sector = sector_of t ~rel:key.rel ~block:key.block in
  let completion = Device.submit t.device ~now op ~sector ~bytes:t.page_size in
  if sync then begin
    let stall = completion -. now in
    (match op with
    | Blocktrace.Read -> t.read_stall <- t.read_stall +. stall
    | Blocktrace.Write -> t.write_stall <- t.write_stall +. stall);
    Simclock.advance_to t.clock completion
  end

let set_repair t fn = t.repair <- Some fn

(* Load the durable image of [key] into [dst], a page no caller holds
   (a frame's or a ring entry's own buffer), or make [dst] the empty page
   when the block was never written. The read takes the full reliability
   path: transient read errors are retried with exponential backoff
   charged to the simulated clock; the image is then checksum-verified,
   and a failing page is handed to the installed repair handler (WAL
   full-page redo) — a page is served correct, repaired, or the read
   fails loudly with [Corrupt_page]. Never silent garbage.
   Caller holds [io_lock] when sharded. *)
let read_backoff_base_s = 0.0005

let read_image t key dst =
  match Hashtbl.find_opt t.disk key with
  | None -> Page.reset dst
  | Some image ->
      let sector = sector_of t ~rel:key.rel ~block:key.block in
      let t0 = Simclock.now t.clock in
      let backoff i =
        t.read_retries <- t.read_retries + 1;
        (match obs t with
        | Some b -> Bus.publish b (Bus.Fault_hit { kind = "read_retry"; sector })
        | None -> ());
        let stall = read_backoff_base_s *. (2.0 ** float_of_int i) in
        t.read_stall <- t.read_stall +. stall;
        Simclock.advance t.clock stall
      in
      (* One read attempt: copy the image into [dst], charge any transient
         failures as backoff, then maybe corrupt the copy in flight.
         Returns whether the transient errors exceeded the retry budget. *)
      let attempt () =
        Page.blit ~src:image ~dst;
        match t.faults with
        | None -> false
        | Some fd ->
            let failures = Faultdev.transient_failures fd ~sector in
            let retries = Stdlib.min failures max_read_retries in
            for i = 0 to retries - 1 do
              backoff i
            done;
            ignore (Faultdev.corrupt_read fd ~sector (Page.buffer dst));
            failures > max_read_retries
      in
      (* A failing checksum is re-read a few times before escalating:
         corruption picked up in flight (bus, DRAM) disappears on a fresh
         read of an intact stored image, while a genuinely damaged image
         (torn write) keeps failing and goes to the repair path. *)
      let rec read_verified tries =
        let unreadable = attempt () in
        if (not unreadable) && Page.checksum_ok dst then true
        else if tries < max_read_retries then begin
          if not unreadable then begin
            t.checksum_failures <- t.checksum_failures + 1;
            match obs t with
            | Some b -> Bus.publish b (Bus.Fault_hit { kind = "checksum"; sector })
            | None -> ()
          end;
          backoff tries;
          read_verified (tries + 1)
        end
        else false
      in
      (* An image this pool stamped itself, with no fault model that could
         have damaged it since, skips the full-page CRC32 re-verification.
         The device I/O and its stall are charged the same either way, so
         simulated results do not depend on it. *)
      let verified =
        if t.faults = None && Hashtbl.mem t.trusted key then begin
          Page.blit ~src:image ~dst;
          true
        end
        else read_verified 0
      in
      submit_io t ~sync:true Blocktrace.Read key;
      (match obs t with
      | Some b ->
          Bus.publish b
            (Bus.Span
               {
                 cat = "storage";
                 name = "page_read";
                 tid = 100;
                 t0;
                 t1 = Simclock.now t.clock;
               })
      | None -> ());
      if not verified then begin
        t.checksum_failures <- t.checksum_failures + 1;
        (match obs t with
        | Some b -> Bus.publish b (Bus.Fault_hit { kind = "checksum"; sector })
        | None -> ());
        let repaired =
          match t.repair with
          | None -> None
          | Some fn -> fn ~rel:key.rel ~block:key.block
        in
        match repaired with
        | Some fixed ->
            t.pages_repaired <- t.pages_repaired + 1;
            (match obs t with
            | Some b ->
                Bus.publish b
                  (Bus.Page_repair { rel = key.rel; block = key.block })
            | None -> ());
            let durable = Page.copy fixed in
            Page.stamp_checksum durable;
            Hashtbl.replace t.disk key durable;
            Page.blit ~src:fixed ~dst
        | None -> raise (Corrupt_page { rel = key.rel; block = key.block })
      end

(* OS page-cache model: when enabled, page write-backs land in the kernel
   cache (no device I/O, no caller stall) and the dirty-expire flusher
   pushes the coalesced set to the device every interval, in sorted order
   (the elevator). Rewrites of the same page within a window cost one
   device write — which is how PostgreSQL's hot pages behave on Linux and
   a large part of why SIAS's small hot write set is so cheap. *)
let flush_os_cache t =
  let keys = Hashtbl.fold (fun k () acc -> k :: acc) t.os_pending [] in
  let keys = List.sort (fun a b -> compare (a.rel, a.block) (b.rel, b.block)) keys in
  List.iter (fun key -> submit_io t ~sync:false Blocktrace.Write key) keys;
  Hashtbl.reset t.os_pending

let os_cache_tick t =
  match t.os_cache_interval with
  | None -> ()
  | Some interval ->
      if Simclock.now t.clock >= t.os_next_flush then begin
        flush_os_cache t;
        t.os_next_flush <- Simclock.now t.clock +. interval
      end

(* Caller holds the frame's shard lock and [io_lock] when sharded. *)
let write_back t frame ~sync =
  Crashpoint.reach "bufpool.writeback.pre";
  let durable =
    (* Fault-free fast path: reuse the existing durable buffer instead of
       allocating a fresh page copy per flush. With fault injection on,
       the torn-write splice below needs the old image intact, so the
       copying path is kept. *)
    match (t.faults, Hashtbl.find_opt t.disk frame.key) with
    | None, Some old ->
        Page.blit ~src:frame.page ~dst:old;
        old
    | _ -> Page.copy frame.page
  in
  Page.stamp_checksum durable;
  (match t.faults with
  | None -> Hashtbl.replace t.trusted frame.key ()
  | Some fd -> (
      let sector = sector_of t ~rel:frame.key.rel ~block:frame.key.block in
      match Faultdev.torn_write fd ~sector ~bytes:t.page_size with
      | None ->
          (* atomic write: any earlier interrupted write is overwritten *)
          Hashtbl.remove t.torn_pending frame.key
      | Some persisted ->
          (* prefix of the new image over the previous durable content;
             manifests only if a crash strikes before the next atomic
             write of this page *)
          (match obs t with
          | Some b -> Bus.publish b (Bus.Fault_hit { kind = "torn_write"; sector })
          | None -> ());
          let torn =
            match Hashtbl.find_opt t.disk frame.key with
            | Some old -> Page.to_bytes old
            | None -> Bytes.make t.page_size '\000'
          in
          Bytes.blit (Page.to_bytes durable) 0 torn 0 persisted;
          Hashtbl.replace t.torn_pending frame.key (Page.of_bytes torn)));
  Hashtbl.replace t.disk frame.key durable;
  (match t.os_cache_interval with
  | None -> (
      match obs t with
      | None -> submit_io t ~sync Blocktrace.Write frame.key
      | Some b ->
          let t0 = Simclock.now t.clock in
          submit_io t ~sync Blocktrace.Write frame.key;
          Bus.publish b
            (Bus.Span
               {
                 cat = "storage";
                 name = "page_write";
                 tid = 100;
                 t0;
                 t1 = Simclock.now t.clock;
               }))
  | Some _ ->
      Hashtbl.replace t.os_pending frame.key ();
      (* bounded cache: a dirty set beyond the kernel's writeback
         threshold is flushed immediately (memory pressure), so only
         write sets that FIT keep coalescing — SIAS's do, SI's do not *)
      if Hashtbl.length t.os_pending > t.os_cache_pages then flush_os_cache t
      else os_cache_tick t);
  frame.dirty <- false;
  t.flushes <- t.flushes + 1;
  Crashpoint.reach "bufpool.writeback.post";
  match obs t with
  | Some b ->
      Bus.publish b
        (Bus.Page_flush { rel = frame.key.rel; block = frame.key.block; sync })
  | None -> ()

(* Clock sweep within one shard's slice: find an unpinned victim, giving
   recently referenced frames a second chance. Dirty victims are written
   back synchronously. Caller holds the shard lock. *)
let find_victim t s =
  let attempts = ref 0 in
  let victim = ref None in
  while !victim = None do
    if !attempts > 2 * s.n then raise (No_free_frames { capacity = s.n });
    let f = t.frames.(s.lo + s.hand) in
    s.hand <- (s.hand + 1) mod s.n;
    incr attempts;
    if f.pin = 0 then begin
      if f.refbit then f.refbit <- false else victim := Some f
    end
  done;
  match !victim with Some f -> f | None -> assert false

let load_frame t s key =
  let f = find_victim t s in
  if f.used then begin
    Crashpoint.reach "bufpool.evict.pre";
    (match obs t with
    | Some b ->
        Bus.publish b
          (Bus.Page_evict
             { rel = f.key.rel; block = f.key.block; dirty = f.dirty })
    | None -> ());
    if f.dirty then with_io t (fun () -> write_back t f ~sync:true);
    Hashtbl.remove s.index f.key;
    s.evictions <- s.evictions + 1
  end;
  (* the victim is unpinned and out of the mapping: reload its own buffer *)
  with_io t (fun () -> read_image t key f.page);
  f.key <- key;
  f.dirty <- false;
  f.used <- true;
  f.refbit <- true;
  f

(* Caller holds the shard lock. *)
let get_frame t s key =
  match Hashtbl.find_opt s.index key with
  | Some i ->
      let f = t.frames.(i) in
      s.hits <- s.hits + 1;
      (match obs t with
      | Some b -> Bus.publish b (Bus.Page_hit { rel = key.rel; block = key.block })
      | None -> ());
      f.refbit <- true;
      f
  | None ->
      s.misses <- s.misses + 1;
      (match obs t with
      | Some b -> Bus.publish b (Bus.Page_miss { rel = key.rel; block = key.block })
      | None -> ());
      let f = load_frame t s key in
      Hashtbl.replace s.index key f.idx;
      f

let with_page t ~rel ~block fn =
  (match t.os_cache_interval with
  | Some _ -> with_io t (fun () -> os_cache_tick t)
  | None -> ());
  let key = { rel; block } in
  let s = shard_of t key in
  lock_shard t s;
  (match get_frame t s key with
  | f ->
      (* the pin taken under the lock keeps the frame from eviction once
         the lock is dropped; page-content synchronization between
         domains is the caller's concern (shard your data) *)
      f.pin <- f.pin + 1;
      s.tick <- s.tick + 1;
      f.last_use <- s.tick;
      unlock_shard t s;
      Fun.protect
        ~finally:(fun () ->
          lock_shard t s;
          f.pin <- f.pin - 1;
          unlock_shard t s)
        (fun () -> fn f.page)
  | exception e ->
      unlock_shard t s;
      raise e)

(* Ring-buffer access for background scans (vacuum/GC): a resident page
   is used without promoting it (no reference bit, no recency bump); a
   miss is served straight from the disk image without occupying a frame,
   so wholesale scans cannot evict the working set (PostgreSQL's
   BAS_VACUUM ring). Read-only: mutations through this path are lost.
   The ring's state ([ring], [ring_fifo], [ring_spare], [users]) is
   guarded by [io_lock]. *)
let ring_capacity = 32

(* Drop [key]'s ring entry; its buffer becomes the spare unless a
   callback still reads it. Caller holds [io_lock]. *)
let ring_drop t key =
  match Hashtbl.find_opt t.ring key with
  | Some e ->
      Hashtbl.remove t.ring key;
      if e.users = 0 then t.ring_spare <- Some e.page
  | None -> ()

(* A ring miss: load [key] into the spare buffer (or a fresh one) and
   enter it, evicting the oldest entry when the ring is full. Caller holds
   [io_lock]; [key] is not in the ring. *)
let ring_load t key =
  let page =
    match t.ring_spare with
    | Some page ->
        t.ring_spare <- None;
        page
    | None -> Page.create ~size:t.page_size
  in
  read_image t key page;
  if Queue.length t.ring_fifo >= ring_capacity then ring_drop t (Queue.pop t.ring_fifo);
  let e = { page; users = 1 } in
  Hashtbl.replace t.ring key e;
  Queue.add key t.ring_fifo;
  e

let with_page_ro t ~rel ~block fn =
  (match t.os_cache_interval with
  | Some _ -> with_io t (fun () -> os_cache_tick t)
  | None -> ());
  let key = { rel; block } in
  let s = shard_of t key in
  lock_shard t s;
  match Hashtbl.find_opt s.index key with
  | Some i ->
      let f = t.frames.(i) in
      s.hits <- s.hits + 1;
      (match obs t with
      | Some b -> Bus.publish b (Bus.Page_hit { rel; block })
      | None -> ());
      f.pin <- f.pin + 1;
      unlock_shard t s;
      Fun.protect
        ~finally:(fun () ->
          lock_shard t s;
          f.pin <- f.pin - 1;
          unlock_shard t s)
        (fun () -> fn f.page)
  | None -> (
      let entry =
        match
          with_io t (fun () ->
              match Hashtbl.find_opt t.ring key with
              | Some e ->
                  e.users <- e.users + 1;
                  Some e
              | None -> None)
        with
        | Some e ->
            s.hits <- s.hits + 1;
            (match obs t with
            | Some b -> Bus.publish b (Bus.Page_hit { rel; block })
            | None -> ());
            e
        | None ->
            s.misses <- s.misses + 1;
            (match obs t with
            | Some b -> Bus.publish b (Bus.Page_miss { rel; block })
            | None -> ());
            with_io t (fun () -> ring_load t key)
      in
      unlock_shard t s;
      Fun.protect
        ~finally:(fun () -> with_io t (fun () -> entry.users <- entry.users - 1))
        (fun () -> fn entry.page))
  | exception e ->
      unlock_shard t s;
      raise e

(* Caller holds the shard lock (or the pool is unsharded). *)
let find_resident_in s t ~rel ~block =
  match Hashtbl.find_opt s.index { rel; block } with
  | Some i -> Some t.frames.(i)
  | None -> None

(* Hint-bit patch: OR bits into a byte of a live item on a page, but only
   if the page is resident. Deliberately bypasses every statistic (no
   hit/miss counter, no reference bit, no recency bump) and does NOT mark
   the frame dirty — hints are advisory and piggyback on the page's next
   real write. Returns whether the patch landed. *)
let patch_resident t ~rel ~block ~slot ~off ~bits =
  let s = shard_of t { rel; block } in
  lock_shard t s;
  let r =
    match Hashtbl.find_opt s.index { rel; block } with
    | Some i ->
        Crashpoint.reach "bufpool.hint.patch";
        Page.or_byte t.frames.(i).page slot ~off ~bits;
        true
    | None -> false
  in
  unlock_shard t s;
  r

let mark_dirty t ~rel ~block =
  (* any mutation invalidates the ring copy *)
  with_io t (fun () -> ring_drop t { rel; block });
  let s = shard_of t { rel; block } in
  lock_shard t s;
  let found =
    match find_resident_in s t ~rel ~block with
    | Some f ->
        f.dirty <- true;
        true
    | None -> false
  in
  unlock_shard t s;
  if not found then invalid_arg "Bufpool.mark_dirty: page not resident"

let flush_block t ~rel ~block ~sync =
  let s = shard_of t { rel; block } in
  lock_shard t s;
  (match find_resident_in s t ~rel ~block with
  | Some f when f.dirty -> with_io t (fun () -> write_back t f ~sync)
  | Some _ | None -> ());
  unlock_shard t s

(* Checkpoints issue their writes in (relation, block) order, like
   PostgreSQL's sorted checkpoints: append regions and index files flush
   as near-sequential streams, which matters greatly on the HDD model. *)
let flush_all t ~sync =
  with_all_shards t (fun () ->
      let dirty =
        Array.to_list t.frames |> List.filter (fun f -> f.used && f.dirty)
      in
      let sorted =
        List.sort
          (fun a b -> compare (a.key.rel, a.key.block) (b.key.rel, b.key.block))
          dirty
      in
      List.iter (fun f -> with_io t (fun () -> write_back t f ~sync)) sorted)

(* The background writer sweeps each shard's slice round-robin
   (PostgreSQL's bgwriter clock scan): every dirty page is eventually
   trickled out regardless of recency, which is what persists partially
   filled append pages under the paper's t1 threshold. The page budget is
   split over shards; with one shard this is the historical scan. *)
let flush_some t ~max_pages =
  let nshards = Array.length t.shards in
  Array.iteri
    (fun i s ->
      let budget =
        if nshards = 1 then max_pages
        else
          (max_pages / nshards)
          + if i < max_pages mod nshards then 1 else 0
      in
      if budget > 0 && s.n > 0 then begin
        lock_shard t s;
        let written = ref 0 in
        let scanned = ref 0 in
        while !written < budget && !scanned < s.n do
          let f = t.frames.(s.lo + s.bg_hand) in
          s.bg_hand <- (s.bg_hand + 1) mod s.n;
          incr scanned;
          if f.used && f.dirty then begin
            with_io t (fun () -> write_back t f ~sync:false);
            incr written
          end
        done;
        unlock_shard t s
      end)
    t.shards

let dirty_count t =
  with_all_shards t (fun () ->
      Array.fold_left
        (fun acc f -> if f.used && f.dirty then acc + 1 else acc)
        0 t.frames)

let resident t ~rel ~block =
  let s = shard_of t { rel; block } in
  lock_shard t s;
  let r = find_resident_in s t ~rel ~block <> None in
  unlock_shard t s;
  r

let is_dirty t ~rel ~block =
  let s = shard_of t { rel; block } in
  lock_shard t s;
  let r =
    match find_resident_in s t ~rel ~block with
    | Some f -> f.dirty
    | None -> false
  in
  unlock_shard t s;
  r

let drop_cache_locked t =
  Array.iter
    (fun f ->
      f.used <- false;
      f.dirty <- false;
      f.pin <- 0;
      f.refbit <- false)
    t.frames;
  Array.iter (fun s -> Hashtbl.reset s.index) t.shards;
  Hashtbl.reset t.ring;
  Queue.clear t.ring_fifo

let drop_cache t = with_all_shards t (fun () -> drop_cache_locked t)

(* Dirty crash: torn in-flight writes land (only their persisted prefix
   survives), then every frame is dropped. What remains is exactly what a
   failure-prone device would hold: flushed images, some of them torn. *)
let crash t =
  with_all_shards t (fun () ->
      with_io t (fun () ->
          Hashtbl.iter (fun key img -> Hashtbl.replace t.disk key img) t.torn_pending;
          t.torn_pages <- t.torn_pages + Hashtbl.length t.torn_pending;
          Hashtbl.reset t.torn_pending;
          Hashtbl.reset t.os_pending;
          (* after a crash, trust nothing: recovery re-verifies checksums *)
          Hashtbl.reset t.trusted);
      drop_cache_locked t)

let stats t =
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
  Array.iter
    (fun (s : shard) ->
      hits := !hits + s.hits;
      misses := !misses + s.misses;
      evictions := !evictions + s.evictions)
    t.shards;
  {
    hits = !hits;
    misses = !misses;
    evictions = !evictions;
    flushes = t.flushes;
    read_stall_s = t.read_stall;
    write_stall_s = t.write_stall;
    read_retries = t.read_retries;
    checksum_failures = t.checksum_failures;
    pages_repaired = t.pages_repaired;
    torn_pages = t.torn_pages;
  }

let on_disk t ~rel ~block =
  with_io t (fun () -> Hashtbl.mem t.disk { rel; block })

let dirty_keys t =
  with_all_shards t (fun () ->
      Array.to_list t.frames
      |> List.filter_map (fun f ->
             if f.used && f.dirty then Some (f.key.rel, f.key.block) else None))

let trim_block t ~rel ~block =
  let s = shard_of t { rel; block } in
  lock_shard t s;
  (match find_resident_in s t ~rel ~block with
  | Some f ->
      Page.reset f.page;
      f.dirty <- false
  | None -> ());
  unlock_shard t s;
  with_io t (fun () ->
      Hashtbl.remove t.disk { rel; block };
      Hashtbl.remove t.os_pending { rel; block };
      ring_drop t { rel; block };
      Hashtbl.remove t.torn_pending { rel; block };
      Hashtbl.remove t.trusted { rel; block };
      (* tell the device: its GC must never relocate this dead data *)
      Device.trim t.device ~sector:(sector_of t ~rel ~block) ~bytes:t.page_size;
      t.trims <- t.trims + 1;
      match obs t with
      | Some b -> Bus.publish b (Bus.Page_trim { rel; block })
      | None -> ())

let trims t = t.trims
