(* Crash-schedule sessions for the {!Sias_chaos.Explorer}: a seeded,
   fully deterministic workload over any registered engine, with a model
   oracle strong enough to adjudicate every schedule — committed-prefix
   durability, byte-equal state at the commit horizon, SI-checker
   acceptance of the post-recovery history, and recovery idempotency. *)

module Simclock = Sias_util.Simclock
module Db = Mvcc.Db
module Engine = Mvcc.Engine
module Txn = Sias_txn.Txn
module Snapshot = Sias_txn.Snapshot
module Wal = Sias_wal.Wal
module Commitpipe = Sias_wal.Commitpipe
module Bufpool = Sias_storage.Bufpool
module Contention = Sias_txn.Contention
module Bus = Sias_obs.Bus
module Value = Mvcc.Value
module Sichecker = Mvcc.Sichecker
module Link = Sias_repl.Link
module Repl = Sias_repl.Repl
module Explorer = Sias_chaos.Explorer

exception Divergence of string

let () =
  Printexc.register_printer (function
    | Divergence msg -> Some (Printf.sprintf "Chaosrun.Divergence: %s" msg)
    | _ -> None)

type config = {
  engine : string;
  isolation : string;
  index : string; (* "array" or "paged" *)
  commit_mode : Commitpipe.mode;
  standby : bool;
  ops : int;
  seed : int;
}

let config ?(isolation = "si") ?(index = "array")
    ?(commit_mode = Commitpipe.Sync) ?(standby = false) ?(ops = 60)
    ?(seed = 11) engine =
  { engine; isolation; index; commit_mode; standby; ops; seed }

let index_kind s = Result.fold ~ok:Fun.id ~error:invalid_arg (Mvcc.Index.kind_of_string s)

(* Deterministic op stream: a plain LCG, so every replay of the same
   config reaches every crash point the census saw, in the same order. *)
let lcg state =
  state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
  !state

let keys = 12
let stray_pk = 999

(* One committed transaction on the model timeline. Commit order equals
   WAL order equals xid order (the workload is serial), so the durable
   state after any crash must be the model state of some prefix. *)
type cand = {
  c_xid : int;
  c_state : (int * int) list; (* sorted (pk, value) after this commit *)
  c_after_lsn : int; (* WAL head right after commit returned *)
  c_writes : (int * int option) list; (* (pk, value) — None = delete *)
}

let snapshot_state model =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] |> List.sort compare

module Make (E : Engine.S) = struct
  type inst = {
    db : Db.t;
    eng : E.t;
    table : E.table;
    (* failover axis: the node that survives the crash *)
    standby : (Db.t * E.t * E.table * Repl.t) option;
    model : (int, int) Hashtbl.t;
    mutable cands : cand list; (* newest first *)
    mutable maybe : cand option; (* commit in flight when the crash hit *)
    mutable flushed_at_crash : int;
  }

  (* Built by the session factory — before the explorer arms anything —
     so setup-time WAL traffic can never eat an armed crash point meant
     for the workload. *)
  let build cfg =
    let db =
      Db.create ~buffer_pages:128 ~commit_mode:cfg.commit_mode
        ~isolation:(Mvcc.Isolation.of_string_exn cfg.isolation)
        ~index:(index_kind cfg.index) ()
    in
    let eng = E.create db in
    let table = E.create_table eng ~name:"t" ~pk_col:0 () in
    let standby =
      if not cfg.standby then None
      else begin
        let sdb = Db.create ~buffer_pages:128 ~index:(index_kind cfg.index) () in
        let seng = E.create sdb in
        let stable = E.create_table seng ~name:"t" ~pk_col:0 () in
        let link = Link.create ~profile:Link.clean ~seed:cfg.seed () in
        let repl =
          Repl.attach ~primary:db ~standby:sdb ~link ~mode:Repl.Ship_async ()
        in
        Repl.set_refresh repl (fun () ->
            Bufpool.drop_cache sdb.Db.pool;
            E.recover seng);
        Some (sdb, seng, stable, repl)
      end
    in
    {
      db;
      eng;
      table;
      standby;
      model = Hashtbl.create 32;
      cands = [];
      maybe = None;
      flushed_at_crash = 0;
    }

  let row k v = [| Value.Int k; Value.Int v |]

  (* The workload is serial, so even under SSI/WSI no commit may ever be
     refused — a serialization failure here is a divergence, not an
     outcome to absorb. *)
  let commit_ok eng txn =
    match E.commit eng txn with
    | Ok () -> ()
    | Error e ->
        raise
          (Divergence
             ("serial workload commit refused: " ^ Engine.error_to_string e))

  (* Commit [txn] with the model transition staged in [maybe] first: if
     the crash lands inside the commit, verification still knows this
     transaction MAY be durable (its commit record might have reached the
     flushed prefix) and what the state looks like if it is. *)
  let committing i txn writes =
    i.maybe <-
      Some
        {
          c_xid = txn.Txn.xid;
          c_state = snapshot_state i.model;
          c_after_lsn = max_int;
          c_writes = writes;
        };
    commit_ok i.eng txn;
    (match i.maybe with
    | Some c ->
        i.cands <-
          { c with c_after_lsn = Wal.current_lsn i.db.Db.wal } :: i.cands
    | None -> ());
    i.maybe <- None

  let run cfg i =
    let rng = ref cfg.seed in
    for _ = 1 to cfg.ops do
      let r = lcg rng mod 100 in
      let k = 1 + (lcg rng mod keys) in
      let v = lcg rng mod 1000 in
      if r < 35 then begin
        (* upsert: insert, or update when the key exists *)
        let txn = E.begin_txn i.eng in
        match E.insert i.eng txn i.table (row k v) with
        | Ok () ->
            Hashtbl.replace i.model k v;
            committing i txn [ (k, Some v) ]
        | Error _ -> (
            E.abort i.eng txn;
            let txn = E.begin_txn i.eng in
            match
              E.update i.eng txn i.table ~pk:k (fun r ->
                  let r = Array.copy r in
                  r.(1) <- Value.Int v;
                  r)
            with
            | Ok () ->
                Hashtbl.replace i.model k v;
                committing i txn [ (k, Some v) ]
            | Error _ -> E.abort i.eng txn)
      end
      else if r < 55 then begin
        let txn = E.begin_txn i.eng in
        match
          E.update i.eng txn i.table ~pk:k (fun r ->
              let r = Array.copy r in
              r.(1) <- Value.Int v;
              r)
        with
        | Ok () ->
            Hashtbl.replace i.model k v;
            committing i txn [ (k, Some v) ]
        | Error _ -> E.abort i.eng txn
      end
      else if r < 65 then begin
        let txn = E.begin_txn i.eng in
        match E.delete i.eng txn i.table ~pk:k with
        | Ok () ->
            Hashtbl.remove i.model k;
            committing i txn [ (k, None) ]
        | Error _ -> E.abort i.eng txn
      end
      else if r < 85 then begin
        (* advance simulated time: closes group-commit windows, runs the
           async trickle, the checkpointer and the replication ticker *)
        Simclock.advance i.db.Db.clock 0.02;
        Db.tick i.db
      end
      else begin
        (* read-only transaction: exercises hint patching, and its commit
           record still lands on the prefix timeline *)
        let txn = E.begin_txn i.eng in
        ignore (E.read i.eng txn i.table ~pk:k);
        committing i txn []
      end
    done;
    (* an in-flight transaction at crash time must be rolled back *)
    let in_flight = E.begin_txn i.eng in
    ignore (E.insert i.eng in_flight i.table (row stray_pk 0))

  let crash i =
    i.flushed_at_crash <- Wal.flushed_lsn i.db.Db.wal;
    Db.crash i.db

  let recover i =
    match i.standby with
    | None -> E.recover i.eng
    | Some (_, _, _, repl) ->
        (* failover: the primary is gone; promote the surviving standby.
           [promote] is idempotent enough to re-run after a nested crash;
           [refresh] rebuilds the standby engine from its installed log. *)
        if not (Repl.promoted repl) then Repl.promote repl
        else begin
          Repl.refresh repl;
          match i.standby with
          | Some (sdb, seng, _, _) ->
              Bufpool.drop_cache sdb.Db.pool;
              E.recover seng
          | None -> ()
        end

  (* The surviving node: the primary itself, or the promoted standby. *)
  let survivor i =
    match i.standby with
    | None -> (i.db, i.eng, i.table)
    | Some (sdb, seng, stable, _) -> (sdb, seng, stable)

  let dump i =
    let _, eng, table = survivor i in
    let txn = E.begin_txn eng in
    let rows =
      List.filter_map
        (fun k ->
          Option.map
            (fun r -> (k, Value.int r.(1)))
            (E.read eng txn table ~pk:k))
        (List.init keys (fun j -> j + 1))
    in
    let stray = E.read eng txn table ~pk:stray_pk in
    let visible = E.scan eng txn table (fun _ -> ()) in
    commit_ok eng txn;
    (rows, stray = None, visible)

  let fail fmt = Printf.ksprintf (fun msg -> raise (Divergence msg)) fmt

  (* Feed the committed prefix to a fresh SI checker as a serial history,
     then replay the recovered state as one reader: the checker must
     accept every read as the newest committed version. *)
  let check_history committed (rows, _, _) =
    let ck = Sichecker.create () in
    let max_xid = ref 0 in
    List.iter
      (fun c ->
        if c.c_xid > !max_xid then max_xid := c.c_xid;
        Sichecker.on_begin ck ~xid:c.c_xid
          ~snapshot:(Snapshot.make ~xid:c.c_xid ~xmax:c.c_xid ~concurrent:[]);
        List.iter
          (fun (pk, v) ->
            Sichecker.on_write ck ~xid:c.c_xid ~rel:0 ~pk
              ~row:(Option.map (fun v -> row pk v) v))
          c.c_writes;
        Sichecker.on_commit ck ~xid:c.c_xid)
      committed;
    let reader = !max_xid + 1 in
    Sichecker.on_begin ck ~xid:reader
      ~snapshot:(Snapshot.make ~xid:reader ~xmax:reader ~concurrent:[]);
    List.iter
      (fun k ->
        let r = List.assoc_opt k rows in
        Sichecker.on_read ck ~xid:reader ~rel:0 ~pk:k
          ~row:(Option.map (fun v -> row k v) r))
      (List.init keys (fun j -> j + 1));
    Sichecker.on_commit ck ~xid:reader;
    if Sichecker.violation_count ck > 0 then
      fail "SI checker rejected the post-recovery history: %s"
        (String.concat " | " (Sichecker.violations ck))

  let verify i =
    let sdb, _, _ = survivor i in
    let mgr = sdb.Db.txnmgr in
    let cands = List.rev i.cands in
    let n = List.length cands in
    (* the recovered committed set must be a prefix of commit order *)
    let k =
      List.fold_left
        (fun k c ->
          let committed = Txn.is_committed mgr c.c_xid in
          match (k, committed) with
          | `Prefix len, true -> `Prefix (len + 1)
          | `Prefix len, false -> `Stopped len
          | `Stopped _, true ->
              fail
                "committed set is not a prefix of commit order: xid %d \
                 committed after a gap"
                c.c_xid
          | `Stopped len, false -> `Stopped len)
        (`Prefix 0) cands
    in
    let k = match k with `Prefix len | `Stopped len -> len in
    (* every commit acknowledged durable before the crash must survive *)
    (match i.standby with
    | Some _ -> () (* async shipping promises nothing at failover *)
    | None ->
        let required =
          List.length
            (List.filter (fun c -> c.c_after_lsn <= i.flushed_at_crash) cands)
        in
        if k < required then
          fail
            "durability lost: only %d of %d transactions survived but %d \
             had durable commit records (flushed lsn %d at crash)"
            k n required i.flushed_at_crash);
    (* the in-doubt commit (crash inside commit) may extend the prefix *)
    let maybe_committed =
      match i.maybe with
      | Some m when Txn.is_committed mgr m.c_xid ->
          if k < n then
            fail
              "in-doubt xid %d survived while definite commit before it was \
               lost"
              m.c_xid;
          Some m
      | _ -> None
    in
    let committed =
      List.filteri (fun j _ -> j < k) cands
      @ match maybe_committed with Some m -> [ m ] | None -> []
    in
    let expect_state =
      match List.rev committed with [] -> [] | last :: _ -> last.c_state
    in
    let pp_state s =
      String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%d=%d" k v) s)
    in
    let (rows, no_stray, visible) as d = dump i in
    if rows <> expect_state then
      fail
        "recovered state diverges from the model prefix at commit %d/%d: \
         expected [%s] got [%s]"
        (List.length committed) n (pp_state expect_state) (pp_state rows);
    if not no_stray then fail "uncommitted in-flight row survived the crash";
    if visible <> List.length expect_state then
      fail "visible-row count %d does not match model %d" visible
        (List.length expect_state);
    check_history committed d;
    (* recovery must be idempotent: running it again changes nothing *)
    recover i;
    let d' = dump i in
    if d' <> d then fail "recovery is not idempotent: second pass diverged"

  let session cfg =
    let i = build cfg in
    {
      Explorer.run = (fun () -> run cfg i);
      crash = (fun () -> crash i);
      recover = (fun () -> recover i);
      verify = (fun () -> verify i);
    }
end

let session cfg =
  let _, (module E : Engine.S) = Engine.resolve_exn cfg.engine in
  let module M = Make (E) in
  M.session cfg

let explore ?(cfg = Explorer.default_config) c =
  Explorer.explore cfg (fun () -> session c)

(* ------------------------------------------------------------------ *)
(* Out-of-space scenarios: finite WAL capacity, reclamation between
   operations, watermark backpressure, and loud read-only degradation.
   Both scenarios drive the same upsert workload and restart check. *)

module Upserts (E : Engine.S) = struct
  type t = {
    db : Db.t;
    eng : E.t;
    table : E.table;
    model : (int, int) Hashtbl.t; (* committed pk -> value *)
    mutable attempted : int;
    mutable committed : int;
    mutable read_only : int; (* writers refused by degraded mode *)
    mutable shed : int; (* admissions refused by backpressure *)
  }

  let create db =
    let eng = E.create db in
    let table = E.create_table eng ~name:"t" ~pk_col:0 () in
    {
      db;
      eng;
      table;
      model = Hashtbl.create 64;
      attempted = 0;
      committed = 0;
      read_only = 0;
      shed = 0;
    }

  (* one write transaction; a mid-transaction Read_only (the log filled
     while the row was being logged) aborts it like any other failure *)
  let one w body =
    let txn = E.begin_txn w.eng in
    match body txn with
    | Ok () -> (
        try
          match E.commit w.eng txn with
          | Ok () -> `Committed
          | Error _ -> `Conflict
        with Db.Read_only _ -> `Read_only)
    | Error _ ->
        E.abort w.eng txn;
        `Conflict
    | exception Db.Read_only _ ->
        E.abort w.eng txn;
        `Read_only

  let upsert w k n =
    match one w (fun txn -> E.insert w.eng txn w.table [| Value.Int k; Value.Int n |]) with
    | `Conflict ->
        one w (fun txn ->
            E.update w.eng txn w.table ~pk:k (fun r ->
                let r = Array.copy r in
                r.(1) <- Value.Int n;
                r))
    | r -> r

  (* Op [n]: through the admission gate, upsert key [1 + n mod 40] to [n]. *)
  let step w n =
    match Contention.admit w.db.Db.contention with
    | Contention.Shed -> w.shed <- w.shed + 1
    | Contention.Admitted ->
        w.attempted <- w.attempted + 1;
        let k = 1 + (n mod 40) in
        (match upsert w k n with
        | `Committed ->
            Hashtbl.replace w.model k n;
            w.committed <- w.committed + 1
        | `Read_only -> w.read_only <- w.read_only + 1
        | `Conflict -> ());
        Contention.release w.db.Db.contention

  (* Crash, recover, and compare: the recovered state must serve exactly
     the committed model, which under reclamation forces the checkpoint
     CLOG snapshot and the truncated-log redo path to carry their
     weight. [Error] names the first difference. *)
  let restart w =
    Db.crash w.db;
    match E.recover w.eng with
    | exception e -> Error ("recovery raised " ^ Printexc.to_string e)
    | () ->
        let txn = E.begin_txn w.eng in
        let wrong =
          Hashtbl.to_seq w.model
          |> Seq.find_map (fun (k, v) ->
                 match E.read w.eng txn w.table ~pk:k with
                 | Some r when Value.int r.(1) = v -> None
                 | Some r ->
                     Some (Printf.sprintf "pk %d: %d, committed %d" k (Value.int r.(1)) v)
                 | None -> Some (Printf.sprintf "pk %d: missing, committed %d" k v))
        in
        let visible = E.scan w.eng txn w.table (fun _ -> ()) in
        ignore (E.commit w.eng txn);
        match wrong with
        | Some d -> Error d
        | None when visible <> Hashtbl.length w.model ->
            Error
              (Printf.sprintf "%d rows visible, %d committed" visible
                 (Hashtbl.length w.model))
        | None -> Ok ()
end

type oos_outcome = {
  attempted : int;
  committed : int;
  read_only_errors : int; (* writers refused by degraded mode *)
  shed : int; (* admissions refused by backpressure *)
  reclaims : int;
  backpressure_on : int;
  backpressure_off : int;
  degraded : string option;
  consistent : bool; (* restart serves exactly the committed model *)
}

let oos_run ?(hold = false) ?(ops = 400) ~engine ~wal_capacity_bytes () =
  let _, (module E : Engine.S) = Engine.resolve_exn engine in
  let module W = Upserts (E) in
  let bus = Bus.create () in
  let reclaims = ref 0 and bp_on = ref 0 and bp_off = ref 0 in
  Bus.subscribe bus (function
    | Bus.Wal_reclaim _ -> incr reclaims
    | Bus.Backpressure { on; _ } -> if on then incr bp_on else incr bp_off
    | _ -> ());
  let db = Db.create ~bus ~wal_capacity_bytes () in
  (* a retention hold pinning the whole log makes reclamation futile, so
     the database must refuse writers loudly instead of checkpointing *)
  if hold then ignore (Wal.register_hold db.Db.wal ~name:"chaos-hold");
  let w = W.create db in
  for n = 1 to ops do
    if n mod 10 = 0 then begin
      Simclock.advance db.Db.clock 0.05;
      Db.tick db
    end;
    W.step w n
  done;
  let degraded = Db.degraded db in
  {
    attempted = w.W.attempted;
    committed = w.W.committed;
    read_only_errors = w.W.read_only;
    shed = w.W.shed;
    reclaims = !reclaims;
    backpressure_on = !bp_on;
    backpressure_off = !bp_off;
    degraded;
    consistent = Result.is_ok (W.restart w);
  }

type sweep_outcome = {
  positions : int;
  failures : (int * string) list;
  degraded_runs : int;
}

let crash_sweep ~index ~engine () =
  let positions = 300 in
  let _, (module E : Engine.S) = Engine.resolve_exn engine in
  let module W = Upserts (E) in
  let failures = ref [] and degraded_runs = ref 0 in
  for k = 1 to positions do
    let db =
      Db.create ~buffer_pages:128 ~wal_capacity_bytes:20_000
        ~index:(index_kind index) ()
    in
    let w = W.create db in
    for n = 1 to k do
      W.step w n
    done;
    if Db.degraded db <> None then incr degraded_runs;
    match W.restart w with
    | Ok () -> ()
    | Error why -> failures := (k, why) :: !failures
  done;
  { positions; failures = List.rev !failures; degraded_runs = !degraded_runs }
