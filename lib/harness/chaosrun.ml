(* Crash-recovery workloads for every crash driver: one op vocabulary,
   one applier keeping the commit-order model, and one verifier strong
   enough to adjudicate any crash position — committed-prefix
   durability, byte-equal state at the commit horizon, SI-checker
   acceptance of the post-recovery history, and recovery idempotency.
   The drivers (explorer sessions, the crash-position sweep, the
   out-of-space scenarios, the QCheck properties) differ only in the op
   list they feed and where the crash lands. *)

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
module Faultdev = Flashsim.Faultdev

exception Divergence of string

let () =
  Printexc.register_printer (function
    | Divergence msg -> Some (Printf.sprintf "Chaosrun.Divergence: %s" msg)
    | _ -> None)

let fail fmt = Printf.ksprintf (fun msg -> raise (Divergence msg)) fmt

type op =
  | Upsert of int * int
  | Update of int * int
  | Delete of int
  | Read of int
  | Tick
  | Checkpoint
  | Writeback
  | Gc

let pp_op = function
  | Upsert (k, v) -> Printf.sprintf "upsert(%d,%d)" k v
  | Update (k, v) -> Printf.sprintf "update(%d,%d)" k v
  | Delete k -> Printf.sprintf "delete(%d)" k
  | Read k -> Printf.sprintf "read(%d)" k
  | Tick -> "tick"
  | Checkpoint -> "checkpoint"
  | Writeback -> "writeback"
  | Gc -> "gc"

type config = {
  engine : string;
  isolation : string;
  index : string; (* "array" or "paged" *)
  commit_mode : Commitpipe.mode;
  standby : bool;
  ops : op list;
  faults : (int * Faultdev.profile) option;
}

(* Deterministic op streams: a plain LCG, so every replay of the same
   config reaches every crash point the census saw, in the same order.
   [pick rng n] chooses op [n] (1-based). *)
let lcg state =
  state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
  !state

let lcg_ops ~seed n pick =
  let rng = ref seed in
  List.init n (fun j -> j + 1) |> List.map (fun n -> pick rng n)

(* The explorer's stream: every op kind over 12 keys. Checkpoints seal
   the append page, so GC finds sealed pages to relocate and trim. *)
let explorer_ops =
  lcg_ops ~seed:11 60 (fun rng _ ->
      let r = lcg rng mod 100 in
      let k = 1 + (lcg rng mod 12) in
      let v = lcg rng mod 1000 in
      if r < 30 then Upsert (k, v)
      else if r < 45 then Update (k, v)
      else if r < 55 then Delete k
      else if r < 70 then Tick
      else if r < 80 then Read k
      else if r < 87 then Checkpoint
      else if r < 94 then Gc
      else Writeback)

let config ?(isolation = "si") ?(index = "array")
    ?(commit_mode = Commitpipe.Sync) ?(standby = false) ?(ops = explorer_ops)
    ?faults engine =
  { engine; isolation; index; commit_mode; standby; ops; faults }

let index_kind s = Result.fold ~ok:Fun.id ~error:invalid_arg (Mvcc.Index.kind_of_string s)

(* Keys the verifier reads back: every op list stays within them. *)
let keys = List.init 40 (fun j -> j + 1)
let stray_pk = 999
let row k v = [| Value.Int k; Value.Int v |]

(* One committed transaction on the model timeline. Commit order equals
   WAL order equals xid order (the workload is serial), so the durable
   state after any crash must be the model state of some prefix. *)
type cand = {
  c_xid : int;
  c_state : (int * int) list; (* sorted (pk, value) after this commit *)
  c_after_lsn : int; (* WAL head right after commit returned *)
  c_writes : (int * int option) list; (* (pk, value) — None = delete *)
}

let apply_writes state writes =
  List.fold_left
    (fun s (k, v) ->
      let s = List.remove_assoc k s in
      match v with Some v -> (k, v) :: s | None -> s)
    state writes
  |> List.sort compare

(* Feed the committed prefix to a fresh SI checker as a serial history,
   then replay the recovered state as one reader: the checker must
   accept every read as the newest committed version. *)
let check_history committed rows =
  let ck = Sichecker.create () in
  let txn xid body =
    Sichecker.on_begin ck ~xid ~snapshot:(Snapshot.make ~xid ~xmax:xid ~concurrent:[]);
    body ();
    Sichecker.on_commit ck ~xid
  in
  List.iter
    (fun c ->
      txn c.c_xid (fun () ->
          List.iter
            (fun (pk, v) ->
              Sichecker.on_write ck ~xid:c.c_xid ~rel:0 ~pk
                ~row:(Option.map (row pk) v))
            c.c_writes))
    committed;
  let reader = 1 + List.fold_left (fun m c -> max m c.c_xid) 0 committed in
  txn reader (fun () ->
      List.iter
        (fun k ->
          Sichecker.on_read ck ~xid:reader ~rel:0 ~pk:k
            ~row:(Option.map (row k) (List.assoc_opt k rows)))
        keys);
  if Sichecker.violation_count ck > 0 then
    fail "SI checker rejected the post-recovery history: %s"
      (String.concat " | " (Sichecker.violations ck))

module Make (E : Engine.S) = struct
  type inst = {
    db : Db.t;
    eng : E.t;
    table : E.table;
    (* failover axis: the node that survives the crash *)
    standby : (Db.t * E.t * E.table * Repl.t) option;
    mutable cands : cand list; (* newest first *)
    mutable maybe : cand option; (* commit in flight when the crash hit *)
    mutable flushed_at_crash : int;
    mutable attempted : int; (* transaction ops admitted *)
    mutable committed : int;
    mutable read_only : int; (* refusals with Db.Read_only *)
    mutable shed : int; (* admissions refused by backpressure *)
    mutable degraded : string option; (* read-only mode after the op list *)
  }

  (* Built before the explorer arms anything, so setup-time WAL traffic
     can never eat an armed crash point meant for the workload. A fault
     plan wraps the data device; [hold] pins the whole log. *)
  let build ?bus ?wal_capacity_bytes ?(hold = false) cfg =
    let device, faults =
      match cfg.faults with
      | None -> (None, None)
      | Some (seed, profile) ->
          let f = Faultdev.create ~profile ~seed () in
          (Some (Faultdev.wrap f (Flashsim.Device.ssd_x25e ~name:"data-ssd" ())), Some f)
    in
    let db =
      Db.create ?bus ?device ?faults ?wal_capacity_bytes ~buffer_pages:128
        ~commit_mode:cfg.commit_mode
        ~isolation:(Mvcc.Isolation.of_string_exn cfg.isolation)
        ~index:(index_kind cfg.index) ()
    in
    if hold then ignore (Wal.register_hold db.Db.wal ~name:"chaos-hold");
    let eng = E.create db in
    let table = E.create_table eng ~name:"t" ~pk_col:0 () in
    let standby =
      if not cfg.standby then None
      else begin
        let sdb = Db.create ~buffer_pages:128 ~index:(index_kind cfg.index) () in
        let seng = E.create sdb in
        let stable = E.create_table seng ~name:"t" ~pk_col:0 () in
        let link = Link.create ~profile:Link.clean ~seed:11 () in
        let repl = Repl.attach ~primary:db ~standby:sdb ~link ~mode:Repl.Ship_async () in
        Repl.set_refresh repl (fun () ->
            Bufpool.drop_cache sdb.Db.pool;
            E.recover seng);
        Some (sdb, seng, stable, repl)
      end
    in
    { db; eng; table; standby; cands = []; maybe = None; flushed_at_crash = 0;
      attempted = 0; committed = 0; read_only = 0; shed = 0; degraded = None }

  (* Commit [txn] with its model transition staged in [maybe] first: if
     the crash lands inside the commit, verification still knows this
     transaction MAY be durable (its commit record might have reached the
     flushed prefix) and what the state looks like if it is. The workload
     is serial, so even under SSI/WSI no commit may be refused — a
     serialization failure is a divergence, not an outcome to absorb. A
     read-only commit under a bounded log writes no record and so is not
     on the durable timeline. *)
  let commit i txn writes =
    let state = match i.cands with c :: _ -> c.c_state | [] -> [] in
    let c =
      { c_xid = txn.Txn.xid; c_state = apply_writes state writes; c_after_lsn = max_int;
        c_writes = writes }
    in
    i.maybe <- Some c;
    (match E.commit i.eng txn with
    | Ok () -> ()
    | Error e -> fail "serial workload commit refused: %s" (Engine.error_to_string e)
    | exception (Db.Read_only _ as e) ->
        (* the commit record did not fit: the transaction is aborted *)
        i.maybe <- None;
        raise e);
    if writes <> [] || Wal.capacity_bytes i.db.Db.wal = None then
      i.cands <- { c with c_after_lsn = Wal.current_lsn i.db.Db.wal } :: i.cands;
    i.maybe <- None;
    i.committed <- i.committed + 1

  (* One write transaction setting [k] to [v]; [false] when the engine
     refused the write (duplicate key, missing row), which aborts it. *)
  let attempt i k v write =
    let txn = E.begin_txn i.eng in
    match write txn with
    | Ok () ->
        commit i txn [ (k, v) ];
        true
    | Error _ ->
        E.abort i.eng txn;
        false
    | exception (Db.Read_only _ as e) ->
        E.abort i.eng txn;
        raise e

  (* A transaction op passes the admission gate first; a Read_only raised
     anywhere inside it counts as one refusal. *)
  let admitted i body =
    match Contention.admit i.db.Db.contention with
    | Contention.Shed -> i.shed <- i.shed + 1
    | Contention.Admitted ->
        i.attempted <- i.attempted + 1;
        (try body () with Db.Read_only _ -> i.read_only <- i.read_only + 1)

  let update i k v txn =
    E.update i.eng txn i.table ~pk:k (fun r ->
        let r = Array.copy r in
        r.(1) <- Value.Int v;
        r)

  let apply i = function
    | Upsert (k, v) ->
        admitted i (fun () ->
            let insert txn = E.insert i.eng txn i.table (row k v) in
            if not (attempt i k (Some v) insert) then
              ignore (attempt i k (Some v) (update i k v)))
    | Update (k, v) -> admitted i (fun () -> ignore (attempt i k (Some v) (update i k v)))
    | Delete k ->
        admitted i (fun () ->
            ignore (attempt i k None (fun txn -> E.delete i.eng txn i.table ~pk:k)))
    | Read k ->
        (* exercises hint patching *)
        admitted i (fun () ->
            let txn = E.begin_txn i.eng in
            ignore (E.read i.eng txn i.table ~pk:k);
            commit i txn [])
    | Tick ->
        (* closes group-commit windows, runs the async trickle, the
           checkpointer, WAL reclamation and the replication ticker *)
        Simclock.advance i.db.Db.clock 0.02;
        Db.tick i.db
    | Checkpoint -> Bufpool.flush_all i.db.Db.pool ~sync:false
    | Writeback -> Bufpool.flush_os_cache i.db.Db.pool
    | Gc -> ( try E.gc i.eng with Db.Read_only _ -> i.read_only <- i.read_only + 1)

  let run cfg i =
    List.iter (apply i) cfg.ops;
    i.degraded <- Db.degraded i.db;
    (* an in-flight transaction at crash time must be rolled back *)
    try ignore (E.insert i.eng (E.begin_txn i.eng) i.table (row stray_pk 0))
    with Db.Read_only _ -> ()

  let crash i =
    i.flushed_at_crash <- Wal.flushed_lsn i.db.Db.wal;
    Db.crash i.db

  let recover i =
    match i.standby with
    | None -> E.recover i.eng
    | Some (_, _, _, repl) when not (Repl.promoted repl) ->
        (* failover: the primary is gone; promote the surviving standby *)
        Repl.promote repl
    | Some (sdb, seng, _, repl) ->
        (* after a nested crash: rebuild from the installed log *)
        Repl.refresh repl;
        Bufpool.drop_cache sdb.Db.pool;
        E.recover seng

  (* The surviving node: the primary itself, or the promoted standby. *)
  let survivor i =
    match i.standby with
    | None -> (i.db, i.eng, i.table)
    | Some (sdb, seng, stable, _) -> (sdb, seng, stable)

  let dump i =
    let _, eng, table = survivor i in
    let txn = E.begin_txn eng in
    let read k =
      Option.map (fun r -> (k, Value.int r.(1))) (E.read eng txn table ~pk:k)
    in
    let rows = List.filter_map read keys in
    let stray = E.read eng txn table ~pk:stray_pk in
    let visible = E.scan eng txn table (fun _ -> ()) in
    (match E.commit eng txn with
    | Ok () -> ()
    | Error e -> fail "post-recovery reader refused: %s" (Engine.error_to_string e));
    (rows, stray = None, visible)

  let verify i =
    let sdb, _, _ = survivor i in
    let is_committed c = Txn.is_committed sdb.Db.txnmgr c.c_xid in
    let cands = List.rev i.cands in
    let n = List.length cands in
    (* the recovered committed set must be a prefix of commit order *)
    let rec prefix k = function
      | c :: rest when is_committed c -> prefix (k + 1) rest
      | rest -> (k, rest)
    in
    let k, lost = prefix 0 cands in
    (match List.find_opt is_committed lost with
    | Some c ->
        fail "committed set is not a prefix of commit order: xid %d committed after a gap"
          c.c_xid
    | None -> ());
    (* every commit acknowledged durable before the crash must survive;
       async shipping to the standby promises nothing at failover *)
    let required =
      List.length (List.filter (fun c -> c.c_after_lsn <= i.flushed_at_crash) cands)
    in
    if i.standby = None && k < required then
      fail
        "durability lost: only %d of %d transactions survived but %d had durable \
         commit records (flushed lsn %d at crash)"
        k n required i.flushed_at_crash;
    (* the in-doubt commit (crash inside commit) may extend the prefix *)
    let in_doubt = List.filter is_committed (Option.to_list i.maybe) in
    if in_doubt <> [] && lost <> [] then
      fail "in-doubt xid %d survived while a definite commit before it was lost"
        (List.hd in_doubt).c_xid;
    let committed = List.filteri (fun j _ -> j < k) cands @ in_doubt in
    let expect = match List.rev committed with [] -> [] | last :: _ -> last.c_state in
    let pp s =
      String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%d=%d" k v) s)
    in
    let ((rows, no_stray, visible) as d) = dump i in
    if rows <> expect then
      fail
        "recovered state diverges from the model prefix at commit %d/%d: \
         expected [%s] got [%s]"
        (List.length committed) n (pp expect) (pp rows);
    if not no_stray then fail "uncommitted in-flight row survived the crash";
    if visible <> List.length expect then
      fail "visible-row count %d does not match model %d" visible (List.length expect);
    check_history committed rows;
    (* recovery must be idempotent: running it again changes nothing *)
    recover i;
    if dump i <> d then fail "recovery is not idempotent: second pass diverged"

  let session cfg =
    let i = build cfg in
    {
      Explorer.run = (fun () -> run cfg i);
      crash = (fun () -> crash i);
      recover = (fun () -> recover i);
      verify = (fun () -> verify i);
    }

  (* Run the whole op list, crash, recover, verify. Under a fault plan a
     loud Corrupt_page/Corrupt_wal is an accepted outcome; only a silently
     wrong answer fails. *)
  let crash_after ?bus ?wal_capacity_bytes ?hold cfg =
    let i = build ?bus ?wal_capacity_bytes ?hold cfg in
    match
      run cfg i;
      crash i;
      recover i;
      verify i
    with
    | () -> (i, Ok ())
    | exception (Bufpool.Corrupt_page _ | Wal.Corrupt_wal _)
      when cfg.faults <> None ->
        (i, Ok ())
    | exception Divergence why -> (i, Error why)
    | exception e -> (i, Error ("recovery raised " ^ Printexc.to_string e))
end

let session cfg =
  let _, (module E : Engine.S) = Engine.resolve_exn cfg.engine in
  let module M = Make (E) in
  M.session cfg

let explore ?(cfg = Explorer.default_config) c =
  Explorer.explore cfg (fun () -> session c)

let crash_after cfg =
  let _, (module E : Engine.S) = Engine.resolve_exn cfg.engine in
  let module M = Make (E) in
  snd (M.crash_after cfg)

(* ------------------------------------------------------------------ *)
(* Out-of-space scenarios: finite WAL capacity, reclamation between
   operations, watermark backpressure, and loud read-only degradation. *)

type oos_outcome = {
  attempted : int;
  committed : int;
  read_only_errors : int;
  shed : int;
  reclaims : int;
  backpressure_on : int;
  backpressure_off : int;
  degraded : string option;
  consistent : bool;
}

(* 400 upserts over 40 keys, with a tick before every tenth. *)
let oos_ops =
  List.init 400 (fun j -> j + 1)
  |> List.concat_map (fun n ->
         (if n mod 10 = 0 then [ Tick ] else []) @ [ Upsert (1 + (n mod 40), n) ])

let oos_run ?hold ~engine ~wal_capacity_bytes () =
  let _, (module E : Engine.S) = Engine.resolve_exn engine in
  let module M = Make (E) in
  let bus = Bus.create () in
  let reclaims = ref 0 and bp_on = ref 0 and bp_off = ref 0 in
  Bus.subscribe bus (function
    | Bus.Wal_reclaim _ -> incr reclaims
    | Bus.Backpressure { on; _ } -> if on then incr bp_on else incr bp_off
    | _ -> ());
  let i, outcome =
    M.crash_after ~bus ~wal_capacity_bytes ?hold (config ~ops:oos_ops engine)
  in
  {
    attempted = i.M.attempted;
    committed = i.M.committed;
    read_only_errors = i.M.read_only;
    shed = i.M.shed;
    reclaims = !reclaims;
    backpressure_on = !bp_on;
    backpressure_off = !bp_off;
    degraded = i.M.degraded;
    consistent = Result.is_ok outcome;
  }

(* ------------------------------------------------------------------ *)
(* Crash-position sweep: recovery after every prefix of an op list. *)

type sweep_outcome = {
  sweep : string;
  positions : int;
  failures : (int * string) list;
  degraded_runs : int;
}

let positions = 300

(* Upserts only, with no ticks: reclamation runs only at transaction
   begins. *)
let upsert_ops = List.init positions (fun j -> Upsert (1 + ((j + 1) mod 40), j + 1))

(* Deletes, GC, checkpoints and write-backs among the upserts: GC
   relocates live versions and trims whole pages while reclamation
   truncates the log. *)
let mixed_ops =
  lcg_ops ~seed:11 positions (fun rng n ->
      let r = lcg rng mod 100 in
      if r < 55 then Upsert (1 + (n mod 40), n)
      else if r < 70 then Delete (1 + (lcg rng mod 40))
      else if r < 80 then Gc
      else if r < 90 then Checkpoint
      else Writeback)

let crash_sweep ~index ~engine () =
  let _, (module E : Engine.S) = Engine.resolve_exn engine in
  let module M = Make (E) in
  List.map
    (fun (sweep, wal_capacity_bytes, ops) ->
      let failures = ref [] and degraded_runs = ref 0 in
      for k = 1 to positions do
        let cfg = config ~index ~ops:(List.filteri (fun j _ -> j < k) ops) engine in
        let i, outcome = M.crash_after ~wal_capacity_bytes cfg in
        if i.M.degraded <> None then incr degraded_runs;
        Result.iter_error (fun why -> failures := (k, why) :: !failures) outcome
      done;
      { sweep; positions; failures = List.rev !failures; degraded_runs = !degraded_runs })
    [
      ("upserts, 20 KB WAL", 20_000, upsert_ops);
      ("mixed, 64 KB WAL", 64_000, mixed_ops);
    ]
