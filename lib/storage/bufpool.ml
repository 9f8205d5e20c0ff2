module Device = Flashsim.Device
module Blocktrace = Flashsim.Blocktrace
module Faultdev = Flashsim.Faultdev
module Simclock = Sias_util.Simclock
module Bus = Sias_obs.Bus
module Crashpoint = Sias_chaos.Crashpoint

type key = { rel : int; block : int }

(* Every table keyed by page hashes and compares the two ints directly:
   on the key record, the polymorphic [Hashtbl.hash] and [compare] cost
   a pool hit more than the rest of its work. No result may depend on a
   table's iteration order ([flush_os_cache] sorts its keys, [crash]
   replays one table into another, [extent] takes a maximum). *)
module Keytbl = Hashtbl.Make (struct
  type t = key

  let equal a b = a.rel = b.rel && a.block = b.block
  let hash k = (k.rel * 1_000_003) + k.block
end)

(* (relation, block) order: checkpoints and the OS-cache flusher write
   in it. *)
let compare_key a b =
  match Int.compare a.rel b.rel with 0 -> Int.compare a.block b.block | c -> c

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
  os_pending : unit Keytbl.t;
  mutable os_next_flush : float;
  ring : ring_entry Keytbl.t; (* small cache for ring-buffer reads *)
  ring_fifo : key Queue.t;
  mutable ring_spare : Page.t option;
      (* a buffer dropped from the ring that no callback holds: the next
         ring miss loads into it instead of allocating *)
  frames : frame array;
  index : int Keytbl.t; (* resident key -> frame index *)
  mutable hand : int; (* clock-sweep position *)
  mutable bg_hand : int; (* background-writer scan position *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  disk : Page.t Keytbl.t; (* flushed page images *)
  bus : Bus.t option;
  faults : Faultdev.t option;
  torn_pending : Page.t Keytbl.t;
      (* per page, the image that survives if a crash strikes now: the
         last write was torn, so a prefix of the new image spliced onto
         the previous durable content. Cleared by a later atomic write. *)
  trusted : unit Keytbl.t;
      (* pages whose disk image this pool stamped itself and that cannot
         have been damaged since (no fault injection): read-in skips
         CRC32 re-verification for them. *)
  mutable repair : (rel:int -> block:int -> Page.t option) option;
  mutable wal_gate : int -> unit;
      (* makes the log durable up to an LSN before a page write or trim *)
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
    ?os_cache_pages ?bus ?faults () =
  if capacity_pages <= 0 then invalid_arg "Bufpool.create: capacity must be positive";
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
        })
  in
  {
    device;
    clock;
    page_size;
    os_cache_interval;
    os_cache_pages = (match os_cache_pages with Some n -> n | None -> capacity_pages);
    os_pending = Keytbl.create 1024;
    os_next_flush = (match os_cache_interval with Some i -> i | None -> infinity);
    ring = Keytbl.create 64;
    ring_fifo = Queue.create ();
    ring_spare = None;
    frames;
    index = Keytbl.create (2 * capacity_pages);
    hand = 0;
    bg_hand = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    disk = Keytbl.create 1024;
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
    torn_pending = Keytbl.create 64;
    trusted = Keytbl.create 1024;
    repair = None;
    wal_gate = ignore;
  }

let page_size t = t.page_size
let device t = t.device
let now t = Simclock.now t.clock

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
let set_wal_gate t fn = t.wal_gate <- fn

(* Load the durable image of [key] into [dst], a page no caller holds
   (a frame's or a ring entry's own buffer), or make [dst] the empty page
   when the block was never written. The read takes the full reliability
   path: transient read errors are retried with exponential backoff
   charged to the simulated clock; the image is then checksum-verified,
   and a failing page is handed to the installed repair handler (WAL
   full-page redo) — a page is served correct, repaired, or the read
   fails loudly with [Corrupt_page]. Never silent garbage. *)
let read_backoff_base_s = 0.0005

let read_image t key dst =
  match Keytbl.find_opt t.disk key with
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
        if t.faults = None && Keytbl.mem t.trusted key then begin
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
            Keytbl.replace t.disk key durable;
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
  let keys = Keytbl.fold (fun k () acc -> k :: acc) t.os_pending [] in
  let keys = List.sort compare_key keys in
  List.iter (fun key -> submit_io t ~sync:false Blocktrace.Write key) keys;
  Keytbl.reset t.os_pending

let os_cache_tick t =
  match t.os_cache_interval with
  | None -> ()
  | Some interval ->
      if Simclock.now t.clock >= t.os_next_flush then begin
        flush_os_cache t;
        t.os_next_flush <- Simclock.now t.clock +. interval
      end

let write_back t (frame : frame) ~sync =
  Crashpoint.reach "bufpool.writeback.pre";
  t.wal_gate (Page.lsn frame.page);
  let durable =
    (* Fault-free fast path: reuse the existing durable buffer instead of
       allocating a fresh page copy per flush. With fault injection on,
       the torn-write splice below needs the old image intact, so the
       copying path is kept. *)
    match (t.faults, Keytbl.find_opt t.disk frame.key) with
    | None, Some old ->
        Page.blit ~src:frame.page ~dst:old;
        old
    | _ -> Page.copy frame.page
  in
  Page.stamp_checksum durable;
  (match t.faults with
  | None -> Keytbl.replace t.trusted frame.key ()
  | Some fd -> (
      let sector = sector_of t ~rel:frame.key.rel ~block:frame.key.block in
      match Faultdev.torn_write fd ~sector ~bytes:t.page_size with
      | None ->
          (* atomic write: any earlier interrupted write is overwritten *)
          Keytbl.remove t.torn_pending frame.key
      | Some persisted ->
          (* prefix of the new image over the previous durable content;
             manifests only if a crash strikes before the next atomic
             write of this page *)
          (match obs t with
          | Some b -> Bus.publish b (Bus.Fault_hit { kind = "torn_write"; sector })
          | None -> ());
          let torn =
            match Keytbl.find_opt t.disk frame.key with
            | Some old -> Page.to_bytes old
            | None -> Bytes.make t.page_size '\000'
          in
          Bytes.blit (Page.to_bytes durable) 0 torn 0 persisted;
          Keytbl.replace t.torn_pending frame.key (Page.of_bytes torn)));
  Keytbl.replace t.disk frame.key durable;
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
      Keytbl.replace t.os_pending frame.key ();
      (* bounded cache: a dirty set beyond the kernel's writeback
         threshold is flushed immediately (memory pressure), so only
         write sets that FIT keep coalescing — SIAS's do, SI's do not *)
      if Keytbl.length t.os_pending > t.os_cache_pages then flush_os_cache t
      else os_cache_tick t);
  frame.dirty <- false;
  t.flushes <- t.flushes + 1;
  Crashpoint.reach "bufpool.writeback.post";
  match obs t with
  | Some b ->
      Bus.publish b
        (Bus.Page_flush { rel = frame.key.rel; block = frame.key.block; sync })
  | None -> ()

(* Clock sweep: find an unpinned victim, giving recently referenced
   frames a second chance. Dirty victims are written back synchronously. *)
let find_victim t =
  let n = Array.length t.frames in
  let attempts = ref 0 in
  let victim = ref None in
  while !victim = None do
    if !attempts > 2 * n then raise (No_free_frames { capacity = n });
    let f = t.frames.(t.hand) in
    t.hand <- (t.hand + 1) mod n;
    incr attempts;
    if f.pin = 0 then begin
      if f.refbit then f.refbit <- false else victim := Some f
    end
  done;
  match !victim with Some f -> f | None -> assert false

let load_frame t key =
  let f = find_victim t in
  if f.used then begin
    Crashpoint.reach "bufpool.evict.pre";
    (match obs t with
    | Some b ->
        Bus.publish b
          (Bus.Page_evict
             { rel = f.key.rel; block = f.key.block; dirty = f.dirty })
    | None -> ());
    if f.dirty then write_back t f ~sync:true;
    Keytbl.remove t.index f.key;
    t.evictions <- t.evictions + 1
  end;
  (* the victim is unpinned and out of the mapping: reload its own buffer *)
  read_image t key f.page;
  f.key <- key;
  f.dirty <- false;
  f.used <- true;
  f.refbit <- true;
  f

let get_frame t key =
  match Keytbl.find_opt t.index key with
  | Some i ->
      let f = t.frames.(i) in
      t.hits <- t.hits + 1;
      (match obs t with
      | Some b -> Bus.publish b (Bus.Page_hit { rel = key.rel; block = key.block })
      | None -> ());
      f.refbit <- true;
      f
  | None ->
      t.misses <- t.misses + 1;
      (match obs t with
      | Some b -> Bus.publish b (Bus.Page_miss { rel = key.rel; block = key.block })
      | None -> ());
      let f = load_frame t key in
      Keytbl.replace t.index key f.idx;
      f

(* Re-raise from an unpin handler, keeping the original backtrace. The
   accessors below unpin in a [match ... with exception] handler, which
   allocates no closure on the way in or out. *)
let reraise e = Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ())

let with_page t ~rel ~block fn =
  os_cache_tick t;
  let f = get_frame t { rel; block } in
  (* the pin keeps the frame from eviction by nested accesses *)
  f.pin <- f.pin + 1;
  match fn f.page with
  | v ->
      f.pin <- f.pin - 1;
      v
  | exception e ->
      f.pin <- f.pin - 1;
      reraise e

(* Ring-buffer access for background scans (vacuum/GC): a resident page
   is used without promoting it (no reference bit, no recency bump); a
   miss is served straight from the disk image without occupying a frame,
   so wholesale scans cannot evict the working set (PostgreSQL's
   BAS_VACUUM ring). Read-only: mutations through this path are lost. *)
let ring_capacity = 32

(* Drop [key]'s ring entry; its buffer becomes the spare unless a
   callback still reads it. *)
let ring_drop t key =
  match Keytbl.find_opt t.ring key with
  | Some e ->
      Keytbl.remove t.ring key;
      if e.users = 0 then t.ring_spare <- Some e.page
  | None -> ()

(* A ring miss: load [key] into the spare buffer (or a fresh one) and
   enter it, evicting the oldest entry when the ring is full. [key] is
   not in the ring. *)
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
  Keytbl.replace t.ring key e;
  Queue.add key t.ring_fifo;
  e

let with_page_ro t ~rel ~block fn =
  os_cache_tick t;
  let key = { rel; block } in
  match Keytbl.find_opt t.index key with
  | Some i ->
      let f = t.frames.(i) in
      t.hits <- t.hits + 1;
      (match obs t with
      | Some b -> Bus.publish b (Bus.Page_hit { rel; block })
      | None -> ());
      f.pin <- f.pin + 1;
      (match fn f.page with
      | v ->
          f.pin <- f.pin - 1;
          v
      | exception e ->
          f.pin <- f.pin - 1;
          reraise e)
  | None ->
      let entry =
        match Keytbl.find_opt t.ring key with
        | Some e ->
            e.users <- e.users + 1;
            t.hits <- t.hits + 1;
            (match obs t with
            | Some b -> Bus.publish b (Bus.Page_hit { rel; block })
            | None -> ());
            e
        | None ->
            t.misses <- t.misses + 1;
            (match obs t with
            | Some b -> Bus.publish b (Bus.Page_miss { rel; block })
            | None -> ());
            ring_load t key
      in
      match fn entry.page with
      | v ->
          entry.users <- entry.users - 1;
          v
      | exception e ->
          entry.users <- entry.users - 1;
          reraise e

let find_resident t ~rel ~block =
  match Keytbl.find_opt t.index { rel; block } with
  | Some i -> Some t.frames.(i)
  | None -> None

(* Hint-bit patch: OR bits into a byte of a live item on a page, but only
   if the page is resident. Deliberately bypasses every statistic (no
   hit/miss counter, no reference bit, no recency bump) and does NOT mark
   the frame dirty — hints are advisory and piggyback on the page's next
   real write. Returns whether the patch landed. *)
let patch_resident t ~rel ~block ~slot ~off ~bits =
  match find_resident t ~rel ~block with
  | Some f ->
      Crashpoint.reach "bufpool.hint.patch";
      Page.or_byte f.page slot ~off ~bits;
      true
  | None -> false

let mark_dirty t ~rel ~block =
  (* any mutation invalidates the ring copy *)
  ring_drop t { rel; block };
  match find_resident t ~rel ~block with
  | Some f -> f.dirty <- true
  | None -> invalid_arg "Bufpool.mark_dirty: page not resident"

let flush_block t ~rel ~block ~sync =
  match find_resident t ~rel ~block with
  | Some f when f.dirty -> write_back t f ~sync
  | Some _ | None -> ()

(* Checkpoints issue their writes in (relation, block) order, like
   PostgreSQL's sorted checkpoints: append regions and index files flush
   as near-sequential streams, which matters greatly on the HDD model. *)
let flush_all t ~sync =
  let dirty = Array.to_list t.frames |> List.filter (fun f -> f.used && f.dirty) in
  let sorted = List.sort (fun a b -> compare_key a.key b.key) dirty in
  List.iter (fun f -> write_back t f ~sync) sorted

(* The background writer sweeps the frames round-robin (PostgreSQL's
   bgwriter clock scan): every dirty page is eventually trickled out
   regardless of recency, which is what persists partially filled append
   pages under the paper's t1 threshold. *)
let flush_some t ~max_pages =
  let n = Array.length t.frames in
  let written = ref 0 in
  let scanned = ref 0 in
  while !written < max_pages && !scanned < n do
    let f = t.frames.(t.bg_hand) in
    t.bg_hand <- (t.bg_hand + 1) mod n;
    incr scanned;
    if f.used && f.dirty then begin
      write_back t f ~sync:false;
      incr written
    end
  done

let dirty_count t =
  Array.fold_left (fun acc f -> if f.used && f.dirty then acc + 1 else acc) 0 t.frames

let resident t ~rel ~block = find_resident t ~rel ~block <> None

let is_dirty t ~rel ~block =
  match find_resident t ~rel ~block with Some f -> f.dirty | None -> false

let drop_cache t =
  Array.iter
    (fun f ->
      f.used <- false;
      f.dirty <- false;
      f.pin <- 0;
      f.refbit <- false)
    t.frames;
  Keytbl.reset t.index;
  Keytbl.reset t.ring;
  Queue.clear t.ring_fifo

(* Dirty crash: torn in-flight writes land (only their persisted prefix
   survives), then every frame is dropped. What remains is exactly what a
   failure-prone device would hold: flushed images, some of them torn. *)
let crash t =
  Keytbl.iter (fun key img -> Keytbl.replace t.disk key img) t.torn_pending;
  t.torn_pages <- t.torn_pages + Keytbl.length t.torn_pending;
  Keytbl.reset t.torn_pending;
  Keytbl.reset t.os_pending;
  (* after a crash, trust nothing: recovery re-verifies checksums *)
  Keytbl.reset t.trusted;
  drop_cache t

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    flushes = t.flushes;
    read_stall_s = t.read_stall;
    write_stall_s = t.write_stall;
    read_retries = t.read_retries;
    checksum_failures = t.checksum_failures;
    pages_repaired = t.pages_repaired;
    torn_pages = t.torn_pages;
  }

let on_disk t ~rel ~block = Keytbl.mem t.disk { rel; block }

let extent t ~rel =
  let top = ref (-1) in
  let note key = if key.rel = rel && key.block > !top then top := key.block in
  Keytbl.iter (fun key _ -> note key) t.disk;
  Keytbl.iter (fun key _ -> note key) t.index;
  !top + 1

let image_lsn t ~rel ~block =
  match Keytbl.find_opt t.disk { rel; block } with
  | Some image when Page.checksum_ok image -> Some (Page.lsn image)
  | Some _ | None -> None

let trim_block t ~rel ~block =
  (* the discard is durable at once: so must be every record before it *)
  t.wal_gate max_int;
  let key = { rel; block } in
  (match find_resident t ~rel ~block with
  | Some f ->
      Page.reset f.page;
      f.dirty <- false
  | None -> ());
  Keytbl.remove t.disk key;
  Keytbl.remove t.os_pending key;
  ring_drop t key;
  Keytbl.remove t.torn_pending key;
  Keytbl.remove t.trusted key;
  (* tell the device: its GC must never relocate this dead data *)
  Device.trim t.device ~sector:(sector_of t ~rel ~block) ~bytes:t.page_size;
  t.trims <- t.trims + 1;
  match obs t with
  | Some b -> Bus.publish b (Bus.Page_trim { rel; block })
  | None -> ()

let trims t = t.trims
