type status = In_progress | Committed | Aborted

type t = { xid : int; snapshot : Snapshot.t; start_time : float }

(* The commit log is a dense 2-bits-per-xid array (PostgreSQL's CLOG):
   code 0 = never assigned, 1 = in progress, 2 = committed, 3 = aborted.
   Status lookup is a shift and a mask instead of a Hashtbl probe.

   Representation: codes are packed 16-per-word into a plain [int array]
   owned by the manager's domain, like the rest of the manager.
   [clog_bytes] mirrors the byte length the retired [Bytes.t]
   representation would have had (start 256, grow to
   [max (2*len) (byte+1)]) because the checkpoint image format — and
   therefore WAL record sizes and device byte counters in the committed
   goldens — depends on that exact growth law.

   The GC horizon is maintained incrementally: a multiset of the active
   snapshots' xmins (keyed min -> count) replaces the per-call fold over
   every active snapshot.

   [commit_lsn] tracks, per xid, the WAL lsn of a commit record that is
   not yet known durable; hint bits for a committed xid may only be set
   once that record has been flushed (0 = nothing pending). *)

module Imap = Map.Make (Int)

type mgr = {
  mutable next_xid : int;
  active : (int, Snapshot.t) Hashtbl.t;
  mutable clog : int array;
  mutable clog_bytes : int;
  mutable xmins : int Imap.t;
  mutable commit_lsn : int array;
  mutable flushed_probe : (unit -> int) option;
}

(* 16 codes per word: index and shift are mask/shift only (no division)
   and 32 of the 63 bits of an OCaml int are used. *)
let words_for_bytes bytes = (bytes + 3) lsr 2

let create_mgr () =
  {
    next_xid = 1;
    active = Hashtbl.create 64;
    clog = Array.make (words_for_bytes 256) 0;
    clog_bytes = 256;
    xmins = Imap.empty;
    commit_lsn = [||];
    flushed_probe = None;
  }

let clog_get mgr xid =
  if xid < 1 then 0
  else begin
    let a = mgr.clog in
    let w = xid lsr 4 in
    if w >= Array.length a then 0
    else (Array.unsafe_get a w lsr ((xid land 15) * 2)) land 3
  end

let clog_set mgr xid code =
  if xid < 1 then invalid_arg "Txn: xid must be positive";
  let byte = xid lsr 2 in
  if byte >= mgr.clog_bytes then
    mgr.clog_bytes <- Stdlib.max (2 * mgr.clog_bytes) (byte + 1);
  let w = xid lsr 4 in
  if w >= Array.length mgr.clog then begin
    let len = Stdlib.max (words_for_bytes mgr.clog_bytes) (w + 1) in
    let b = Array.make len 0 in
    Array.blit mgr.clog 0 b 0 (Array.length mgr.clog);
    mgr.clog <- b
  end;
  let a = mgr.clog in
  let shift = (xid land 15) * 2 in
  a.(w) <- (a.(w) land lnot (3 lsl shift)) lor (code lsl shift)

let active_xids mgr = Hashtbl.fold (fun xid _ acc -> xid :: acc) mgr.active []

let xmins_add mgr m =
  mgr.xmins <- Imap.update m (function None -> Some 1 | Some n -> Some (n + 1)) mgr.xmins

let xmins_remove mgr m =
  mgr.xmins <-
    Imap.update m (function Some 1 -> None | Some n -> Some (n - 1) | None -> None) mgr.xmins

let begin_txn ?(now = 0.0) mgr =
  let xid = mgr.next_xid in
  mgr.next_xid <- xid + 1;
  let concurrent = active_xids mgr in
  let snapshot = Snapshot.make ~xid ~xmax:(xid - 1) ~concurrent in
  Hashtbl.replace mgr.active xid snapshot;
  xmins_add mgr (Snapshot.xmin snapshot);
  clog_set mgr xid 1;
  { xid; snapshot; start_time = now }

let finish mgr t final =
  if clog_get mgr t.xid <> 1 then invalid_arg "Txn: transaction is not in progress";
  (match Hashtbl.find_opt mgr.active t.xid with
  | Some snap -> xmins_remove mgr (Snapshot.xmin snap)
  | None -> ());
  Hashtbl.remove mgr.active t.xid;
  clog_set mgr t.xid (match final with Committed -> 2 | _ -> 3)

let commit mgr t = finish mgr t Committed
let abort mgr t = finish mgr t Aborted

let status mgr xid =
  match clog_get mgr xid with
  | 1 -> In_progress
  | 2 -> Committed
  | 3 -> Aborted
  | _ ->
      (* Unassigned. Reachable after a crash: a checkpoint may flush a
         heap page carrying a tuple whose xid left no record in the
         durable log (e.g. the writer was refused at the WAL and
         aborted in degraded mode). No durable trace means no commit
         record, so the verdict is aborted. *)
      Aborted

let is_committed mgr xid = clog_get mgr xid = 2

let last_xid mgr = mgr.next_xid - 1

let horizon mgr =
  match Imap.min_binding_opt mgr.xmins with
  | Some (m, _) -> m
  | None -> mgr.next_xid

let visible mgr snap c =
  c = snap.Snapshot.xid || (Snapshot.sees_xid snap c && is_committed mgr c)

let mark_recovered mgr ~xid ~committed =
  clog_set mgr xid (if committed then 2 else 3);
  if xid >= mgr.next_xid then mgr.next_xid <- xid + 1

(* CLOG snapshot, carried inside checkpoint WAL records so that log
   truncation cannot lose the outcome of transactions whose commit
   records were recycled: restore the image, then overlay the retained
   tail. In-progress codes in the image are flipped to aborted — a
   transaction still running at the checkpoint either has its commit
   record in the retained tail (the overlay wins) or never committed. *)
let clog_image mgr =
  (* Serialize to the retired byte format — 4 codes per byte, image
     length following the legacy growth law via [clog_bytes] — so
     checkpoint payloads (and hence WAL/device byte counts in the
     goldens) are unchanged by the word-packed representation. *)
  let a = mgr.clog in
  let words = Array.length a in
  let code xid =
    let w = xid lsr 4 in
    if w >= words then 0 else (a.(w) lsr ((xid land 15) * 2)) land 3
  in
  let image =
    String.init mgr.clog_bytes (fun b ->
        let x = 4 * b in
        Char.chr
          (code x
          lor (code (x + 1) lsl 2)
          lor (code (x + 2) lsl 4)
          lor (code (x + 3) lsl 6)))
  in
  (mgr.next_xid, image)

let clog_restore mgr ~next_xid ~image =
  let bytes = String.length image in
  mgr.clog_bytes <- bytes;
  let a = Array.make (Stdlib.max 1 (words_for_bytes bytes)) 0 in
  for b = 0 to bytes - 1 do
    let packed = Char.code (String.unsafe_get image b) in
    for j = 0 to 3 do
      let code = (packed lsr (j * 2)) land 3 in
      if code <> 0 then begin
        let xid = (4 * b) + j in
        let shift = (xid land 15) * 2 in
        a.(xid lsr 4) <- a.(xid lsr 4) lor (code lsl shift)
      end
    done
  done;
  mgr.clog <- a;
  for xid = 1 to next_xid - 1 do
    if clog_get mgr xid = 1 then clog_set mgr xid 3
  done;
  mgr.next_xid <- Stdlib.max mgr.next_xid next_xid

(* Power loss: in-flight transactions are simply gone. Their clog codes
   stay in-progress until recovery's log scan adjudicates them. *)
let reset_active mgr =
  Hashtbl.reset mgr.active;
  mgr.xmins <- Imap.empty;
  mgr.commit_lsn <- [||];
  (* The clog is volatile: verdicts recorded only in memory (e.g. a
     group-committed transaction whose WAL record never reached the
     device) must not survive the crash. Recovery re-derives every
     durable verdict via [mark_recovered] / [clog_restore], both of
     which also advance [next_xid] past every xid seen in the log, so
     no xid with a durable trace can be re-issued. *)
  Array.fill mgr.clog 0 (Array.length mgr.clog) 0;
  mgr.next_xid <- 1

let set_flushed_probe mgr f = mgr.flushed_probe <- Some f

let note_commit_lsn mgr ~xid ~lsn =
  if xid >= 0 then begin
    if xid >= Array.length mgr.commit_lsn then begin
      let len = Stdlib.max 1024 (Stdlib.max (2 * Array.length mgr.commit_lsn) (xid + 1)) in
      let a = Array.make len 0 in
      Array.blit mgr.commit_lsn 0 a 0 (Array.length mgr.commit_lsn);
      mgr.commit_lsn <- a
    end;
    mgr.commit_lsn.(xid) <- lsn
  end

let durably_committed mgr xid =
  xid < 0
  || xid >= Array.length mgr.commit_lsn
  ||
  let lsn = mgr.commit_lsn.(xid) in
  lsn = 0
  ||
  match mgr.flushed_probe with
  | None ->
      mgr.commit_lsn.(xid) <- 0;
      true
  | Some probe ->
      probe () >= lsn
      && begin
           mgr.commit_lsn.(xid) <- 0;
           true
         end
