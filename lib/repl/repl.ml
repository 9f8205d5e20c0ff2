module Wal = Sias_wal.Wal
module Commitpipe = Sias_wal.Commitpipe
module Simclock = Sias_util.Simclock
module Bus = Sias_obs.Bus
module Db = Mvcc.Db
module Sichecker = Mvcc.Sichecker
module Snapshot = Sias_txn.Snapshot
module Value = Mvcc.Value
module Crashpoint = Sias_chaos.Crashpoint

type mode = Ship_async | Remote_flush

let mode_name = function Ship_async -> "async" | Remote_flush -> "remote-flush"

let mode_names = [ "async"; "remote-flush" ]

let mode_of_string = function
  | "async" -> Ok Ship_async
  | "remote-flush" -> Ok Remote_flush
  | s ->
      Error
        (Printf.sprintf "unknown replication mode %S; valid modes: %s" s
           (String.concat ", " mode_names))

exception Lagging of { installed_lsn : int; expected_lsn : int }

(* A primary transaction's logical history, captured off the primary bus
   so the standby's SI checker can be fed the committed prefix exactly as
   its commit records install. *)
type capture = {
  c_snap : Snapshot.t;
  mutable c_writes : (int * int * Value.t array option) list; (* newest first *)
}

type msg =
  | Ship of Wal.record list (* contiguous slice, oldest first *)
  | Ack of int (* cumulative: highest LSN installed contiguously *)

type t = {
  primary : Db.t;
  standby : Db.t;
  link : Link.t;
  mode : mode;
  rto : float;
  max_sync_retries : int;
  hold : Wal.hold;
  checker : Sichecker.t option;
  captures : (int, capture) Hashtbl.t;
  (* sender *)
  mutable sent_upto : int; (* highest LSN handed to the link *)
  mutable acked : int; (* cumulative standby acknowledgement *)
  mutable last_progress : float;
  (* in-flight messages, both directions; the sequence number breaks
     delivery-time ties so processing order is deterministic *)
  mutable inflight : (float * int * msg) list;
  mutable seq : int;
  (* standby *)
  pending_install : (int, Wal.record) Hashtbl.t; (* received out of order *)
  mutable refresh_fn : (unit -> unit) option;
  mutable dirty : bool;
  mutable promoted : bool;
  mutable commit_horizon : int;
  (* stats *)
  mutable ship_batches : int;
  mutable shipped_records : int;
  mutable shipped_bytes : int;
  mutable installed_records : int;
  mutable retransmits : int;
  mutable degraded_acks : int;
}

let obs db =
  let b = Db.bus db in
  if Bus.active b then Some b else None

let primary_wal t = t.primary.Db.wal
let standby_wal t = t.standby.Db.wal
let installed_lsn t = Wal.current_lsn (standby_wal t)
let commit_horizon t = t.commit_horizon
let checker t = t.checker
let promoted t = t.promoted
let partition t b = Link.set_partitioned t.link b

(* ---- standby side ---- *)

let feed_checker t (r : Wal.record) =
  match t.checker with
  | None -> ()
  | Some ck -> (
      match r.kind with
      | Wal.Commit -> (
          match Hashtbl.find_opt t.captures r.xid with
          | None -> ()
          | Some c ->
              Sichecker.on_begin ck ~xid:r.xid ~snapshot:c.c_snap;
              List.iter
                (fun (rel, pk, row) ->
                  Sichecker.on_write ck ~xid:r.xid ~rel ~pk ~row)
                (List.rev c.c_writes);
              Sichecker.on_commit ck ~xid:r.xid;
              Hashtbl.remove t.captures r.xid)
      | Wal.Abort -> Hashtbl.remove t.captures r.xid
      | _ -> ())

let send_ack t ~now =
  Crashpoint.reach "repl.ack.pre";
  let lsn = installed_lsn t in
  match Link.transmit t.link ~now with
  | `Delivered at ->
      t.seq <- t.seq + 1;
      t.inflight <- (at, t.seq, Ack lsn) :: t.inflight
  | `Dropped -> ()

(* The standby received a slice: buffer it, install whatever became
   contiguous, flush, and acknowledge cumulatively. Duplicates (go-back-N
   retransmits after a lost ack) fall out naturally: already-installed
   LSNs are skipped and the fresh cumulative ack re-synchronizes the
   sender. *)
let receive_records t ~at records =
  Crashpoint.reach "repl.install.pre";
  let swal = standby_wal t in
  List.iter
    (fun (r : Wal.record) ->
      if r.lsn >= Wal.next_lsn swal then Hashtbl.replace t.pending_install r.lsn r)
    records;
  let installed = ref 0 in
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt t.pending_install (Wal.next_lsn swal) with
    | None -> continue := false
    | Some r ->
        Hashtbl.remove t.pending_install r.lsn;
        Simclock.advance_to t.standby.Db.clock at;
        Wal.install swal r;
        incr installed;
        t.installed_records <- t.installed_records + 1;
        if r.kind = Wal.Commit && r.xid > t.commit_horizon then
          t.commit_horizon <- r.xid;
        feed_checker t r
  done;
  if !installed > 0 then begin
    Wal.flush swal ~sync:true;
    t.dirty <- true;
    match obs t.standby with
    | Some b -> Bus.publish b (Bus.Repl_install { records = !installed })
    | None -> ()
  end;
  (* always acknowledge: a pure-duplicate slice means an ack was lost *)
  send_ack t ~now:at

(* ---- sender side ---- *)

let note_ack t ~lsn ~now =
  if lsn > t.acked then begin
    t.acked <- lsn;
    t.last_progress <- now;
    (* records at or below the ack are safe on the standby; the hold only
       needs to pin lsn+1 onward *)
    Wal.advance_hold (primary_wal t) t.hold ~lsn:(lsn + 1);
    match obs t.primary with
    | Some b -> Bus.publish b (Bus.Repl_ack { lsn })
    | None -> ()
  end

let deliver_due t ~now =
  let due, rest = List.partition (fun (at, _, _) -> at <= now) t.inflight in
  t.inflight <- rest;
  let due = List.sort (fun (a, s, _) (b, s', _) -> compare (a, s) (b, s')) due in
  List.iter
    (fun (at, _, m) ->
      match m with
      | Ship records -> if not t.promoted then receive_records t ~at records
      | Ack lsn -> note_ack t ~lsn ~now)
    due

let record_slice t ~from ~upto =
  if from > upto then []
  else
    let records, _tail = Wal.verified_from (primary_wal t) ~lsn:from in
    List.filter (fun (r : Wal.record) -> r.lsn <= upto) records

(* Records per ship message. *)
let ship_batch = 64

let rec batches n = function
  | [] -> []
  | l ->
      let rec take k acc = function
        | r :: rest when k > 0 -> take (k - 1) (r :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let batch, rest = take n [] l in
      batch :: batches n rest

let ship_batches t ~now records =
  List.iter
    (fun batch ->
      Crashpoint.reach "repl.send.pre";
      let bytes = List.fold_left (fun a r -> a + Wal.record_bytes r) 0 batch in
      t.ship_batches <- t.ship_batches + 1;
      t.shipped_records <- t.shipped_records + List.length batch;
      t.shipped_bytes <- t.shipped_bytes + bytes;
      (match obs t.primary with
      | Some b ->
          Bus.publish b
            (Bus.Repl_ship { records = List.length batch; bytes })
      | None -> ());
      match Link.transmit t.link ~now with
      | `Delivered at ->
          t.seq <- t.seq + 1;
          t.inflight <- (at, t.seq, Ship batch) :: t.inflight
      | `Dropped -> ())
    (batches ship_batch records)

let tick t =
  if not t.promoted then begin
    let now = Db.now t.primary in
    deliver_due t ~now;
    (* go-back-N: unacknowledged records and no ack progress for a full
       timeout — rewind the cursor to the acknowledgement so this very
       tick retransmits the gap. Checked before shipping new records: a
       lost batch stalls installation even while fresh traffic flows, so
       the rewind must not wait for the workload to pause. *)
    if t.acked < t.sent_upto && now -. t.last_progress > t.rto then begin
      t.sent_upto <- t.acked;
      t.retransmits <- t.retransmits + 1;
      t.last_progress <- now
    end;
    let flushed = Wal.flushed_lsn (primary_wal t) in
    if flushed > t.sent_upto then begin
      if t.acked >= t.sent_upto then t.last_progress <- now;
      ship_batches t ~now (record_slice t ~from:(t.sent_upto + 1) ~upto:flushed);
      t.sent_upto <- flushed
    end
  end

(* ---- remote-flush commit path ---- *)

(* One synchronous ship/ack round trip per commit (or commit group),
   retried on loss with the retransmit timeout as the per-try penalty.
   Exhausted retries degrade: the commit is acknowledged on local
   durability alone, loudly counted. Deterministic: the link RNG and the
   retry schedule are functions of the seed and the call sequence. *)
let sync_ship t ~lsn ~at =
  if t.promoted then at
  else begin
    let target = Stdlib.min lsn (Wal.flushed_lsn (primary_wal t)) in
    let rec attempt tries now =
      if tries > t.max_sync_retries then begin
        t.degraded_acks <- t.degraded_acks + 1;
        (match obs t.primary with
        | Some b -> Bus.publish b Bus.Repl_degraded
        | None -> ());
        now
      end
      else begin
        let next = Wal.next_lsn (standby_wal t) in
        let slice = record_slice t ~from:next ~upto:target in
        let bytes =
          List.fold_left (fun a r -> a + Wal.record_bytes r) 0 slice
        in
        if slice <> [] then begin
          t.ship_batches <- t.ship_batches + 1;
          t.shipped_records <- t.shipped_records + List.length slice;
          t.shipped_bytes <- t.shipped_bytes + bytes;
          match obs t.primary with
          | Some b ->
              Bus.publish b
                (Bus.Repl_ship { records = List.length slice; bytes })
          | None -> ()
        end;
        match Link.transmit t.link ~now with
        | `Dropped -> attempt (tries + 1) (now +. t.rto)
        | `Delivered t1 -> (
            let swal = standby_wal t in
            List.iter
              (fun (r : Wal.record) ->
                if r.lsn = Wal.next_lsn swal then begin
                  Simclock.advance_to t.standby.Db.clock t1;
                  Wal.install swal r;
                  t.installed_records <- t.installed_records + 1;
                  if r.kind = Wal.Commit && r.xid > t.commit_horizon then
                    t.commit_horizon <- r.xid;
                  feed_checker t r
                end)
              slice;
            if slice <> [] then begin
              Wal.flush swal ~sync:true;
              t.dirty <- true;
              match obs t.standby with
              | Some b ->
                  Bus.publish b
                    (Bus.Repl_install { records = List.length slice })
              | None -> ()
            end;
            (* the flush acknowledgement rides the link back *)
            match Link.transmit t.link ~now:t1 with
            | `Dropped -> attempt (tries + 1) (t1 +. t.rto)
            | `Delivered t2 ->
                note_ack t ~lsn:(installed_lsn t) ~now:t2;
                if target > t.sent_upto then t.sent_upto <- target;
                t2)
      end
    in
    attempt 0 at
  end

(* ---- lifecycle ---- *)

let attach ~primary ~standby ~link ~mode
    ?(retransmit_timeout = 0.05) ?(max_sync_retries = 5) ?(check = false) () =
  let hold = Wal.register_hold primary.Db.wal ~name:"standby" in
  let checker = if check then Some (Sichecker.attach (Db.bus standby)) else None in
  let t =
    {
      primary;
      standby;
      link;
      mode;
      rto = retransmit_timeout;
      max_sync_retries;
      hold;
      checker;
      captures = Hashtbl.create 64;
      sent_upto = 0;
      acked = 0;
      last_progress = 0.0;
      inflight = [];
      seq = 0;
      pending_install = Hashtbl.create 256;
      refresh_fn = None;
      dirty = false;
      promoted = false;
      commit_horizon = 0;
      ship_batches = 0;
      shipped_records = 0;
      shipped_bytes = 0;
      installed_records = 0;
      retransmits = 0;
      degraded_acks = 0;
    }
  in
  if check then
    Bus.subscribe (Db.bus primary) (function
      | Db.Event.Txn_snapshot { xid; snapshot } ->
          Hashtbl.replace t.captures xid { c_snap = snapshot; c_writes = [] }
      | Db.Event.Row_write { xid; rel; pk; row } -> (
          match Hashtbl.find_opt t.captures xid with
          | Some c -> c.c_writes <- (rel, pk, row) :: c.c_writes
          | None -> ())
      | Bus.Txn_abort { xid } -> Hashtbl.remove t.captures xid
      | _ -> ());
  (* hot standby: its read-only transactions must not interleave local
     records into the shipped log *)
  Db.set_wal_logging standby false;
  Db.add_ticker primary (fun () -> tick t);
  (match mode with
  | Remote_flush ->
      Commitpipe.set_remote_wait primary.Db.commitpipe (fun ~lsn ~at ->
          sync_ship t ~lsn ~at)
  | Ship_async -> ());
  t

let set_refresh t f = t.refresh_fn <- Some f

let refresh t =
  if t.dirty then begin
    (match t.refresh_fn with None -> () | Some f -> f ());
    t.dirty <- false
  end

let promote ?expect_flushed_lsn t =
  Crashpoint.reach "repl.promote.pre";
  t.promoted <- true;
  Commitpipe.clear_remote_wait t.primary.Db.commitpipe;
  Wal.release_hold (primary_wal t) t.hold;
  t.inflight <- [];
  Hashtbl.reset t.pending_install;
  let installed = installed_lsn t in
  (match expect_flushed_lsn with
  | Some expected when installed < expected ->
      raise (Lagging { installed_lsn = installed; expected_lsn = expected })
  | _ -> ());
  Wal.flush (standby_wal t) ~sync:true;
  t.dirty <- true;
  (match t.refresh_fn with None -> () | Some f -> f ());
  t.dirty <- false;
  (* the promoted standby is the new primary: it logs again *)
  Db.set_wal_logging t.standby true

type stats = {
  mode_label : string;
  ship_batches : int;
  shipped_records : int;
  shipped_bytes : int;
  installed_records : int;
  installed_lsn : int;
  acked_lsn : int;
  lag_records : int;
  retransmits : int;
  degraded_acks : int;
  link_sent : int;
  link_dropped : int;
}

let stats t =
  {
    mode_label = mode_name t.mode;
    ship_batches = t.ship_batches;
    shipped_records = t.shipped_records;
    shipped_bytes = t.shipped_bytes;
    installed_records = t.installed_records;
    installed_lsn = installed_lsn t;
    acked_lsn = t.acked;
    lag_records =
      Stdlib.max 0 (Wal.flushed_lsn (primary_wal t) - installed_lsn t);
    retransmits = t.retransmits;
    degraded_acks = t.degraded_acks;
    link_sent = Link.sent t.link;
    link_dropped = Link.dropped t.link;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "replication: mode=%s shipped=%d (%d batches, %d bytes) installed=%d \
     installed-lsn=%d acked-lsn=%d lag=%d retransmits=%d degraded=%d \
     link-sent=%d link-dropped=%d@."
    s.mode_label s.shipped_records s.ship_batches s.shipped_bytes
    s.installed_records s.installed_lsn s.acked_lsn s.lag_records s.retransmits
    s.degraded_acks s.link_sent s.link_dropped
