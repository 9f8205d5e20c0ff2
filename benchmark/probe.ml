(* Host-time probes taken from outside the libraries: a per-transaction
   latency recorder (always on in a measured phase), and a span stack
   around every call into a layer (traced rounds only). Both allocate
   nothing on their hot paths, so the traced run's minor-heap counts are
   the libraries' own. Single-domain: the TPC-C loop is serial. *)

external now_ns : unit -> (int[@untagged])
  = "sias_bench_now_ns_byte" "sias_bench_now_ns"
[@@noalloc]

let words () = int_of_float (Gc.minor_words ())

(* ---------------- per-transaction latency ---------------- *)

(* One sample per transaction attempt: host ns from [begin_txn] to the
   [commit] or [abort] that ends it. [kind] is filled in only by traced
   rounds, from the [Span {cat = "txn"}] event Tpcc_workload publishes
   after each transaction. *)
module Latency = struct
  let recording = ref false
  let attempts = ref 0
  let started = ref 0
  let ns = ref (Array.make 65536 0)
  let kind = ref (Bytes.make 65536 '\000')
  let n = ref 0
  let tagged = ref 0

  let reset () =
    attempts := 0;
    n := 0;
    tagged := 0;
    Bytes.fill !kind 0 (Bytes.length !kind) '\000'

  let start () =
    if !recording then begin
      incr attempts;
      started := now_ns ()
    end

  let stop () =
    if !recording then begin
      let d = now_ns () - !started in
      if !n = Array.length !ns then begin
        let bigger = Array.make (2 * !n) 0 in
        Array.blit !ns 0 bigger 0 !n;
        ns := bigger;
        kind := Bytes.extend !kind 0 !n
      end;
      Array.unsafe_set !ns !n d;
      incr n
    end

  (* every attempt since the previous transaction span belongs to this kind *)
  let tag k =
    for i = !tagged to !n - 1 do
      Bytes.unsafe_set !kind i (Char.unsafe_chr (k + 1))
    done;
    tagged := !n

  let samples () = Array.sub !ns 0 !n

  (* [kinds.(i)] is the 0-based tag of sample i, or -1 when untagged *)
  let kinds () = Array.init !n (fun i -> Char.code (Bytes.get !kind i) - 1)
end

(* ---------------- span stack ---------------- *)

type span = {
  id : int;  (** index in [registry] *)
  name : string;
  mutable calls : int;
  mutable self_ns : int;  (** duration minus the child spans inside it *)
  mutable self_words : int;
  mutable children : int;  (** direct child spans, for the probe correction *)
}

let registry = ref [||]

let span name =
  let s = { id = Array.length !registry; name; calls = 0; self_ns = 0; self_words = 0; children = 0 } in
  registry := Array.append !registry [| s |];
  s

let clear s =
  s.calls <- 0;
  s.self_ns <- 0;
  s.self_words <- 0;
  s.children <- 0

(* The open spans, innermost last: one frame of ints per span (id,
   start ns, start words, child ns, child words, child count), so a
   probe stores no pointer and pays no write barrier. *)
let frame = 6
let stack = Array.make (64 * frame) 0
let top = ref 0

let enter s =
  let b = !top in
  top := b + frame;
  stack.(b) <- s.id;
  stack.(b + 3) <- 0;
  stack.(b + 4) <- 0;
  stack.(b + 5) <- 0;
  stack.(b + 2) <- words ();
  stack.(b + 1) <- now_ns ()

let leave () =
  let t = now_ns () in
  let w = words () in
  let b = !top - frame in
  top := b;
  let s = !registry.(stack.(b)) in
  let dt = t - stack.(b + 1) and dw = w - stack.(b + 2) in
  s.calls <- s.calls + 1;
  s.self_ns <- s.self_ns + dt - stack.(b + 3);
  s.self_words <- s.self_words + dw - stack.(b + 4);
  s.children <- s.children + stack.(b + 5);
  if b > 0 then begin
    let p = b - frame in
    stack.(p + 3) <- stack.(p + 3) + dt;
    stack.(p + 4) <- stack.(p + 4) + dw;
    stack.(p + 5) <- stack.(p + 5) + 1
  end

(* The layers the trace reports, outermost first. [tpcc] is the whole
   measured [run] call: its self time is Tpcc_workload's own work. *)
let tpcc = span "tpcc"

let mvcc_ops =
  [ "read"; "update"; "insert"; "delete"; "lookup"; "range_pk"; "scan";
    "commit"; "begin_txn"; "abort"; "gc" ]

let mvcc = List.map (fun op -> (op, span ("mvcc." ^ op))) mvcc_ops
let op name = List.assoc name mvcc
let submit = span "flashsim.submit"
let trim = span "flashsim.trim"
let checker = span "obs.checker"
let all = (tpcc :: List.map snd mvcc) @ [ submit; trim; checker ]
let reset () = List.iter clear all

(* What one probe pair costs, measured on an empty span: [own] is what
   an empty span reports as its own self time (per call), [outer] what
   it adds to its parent's self time beyond that. *)
type cost = { own : float; outer : float }

let calibration_parent = span "calibrate.parent"
let calibration_child = span "calibrate.child"

let calibrate () =
  let parent = calibration_parent and child = calibration_child in
  let k = 200_000 in
  let once () =
    clear parent;
    clear child;
    enter parent;
    for _ = 1 to k do
      enter child;
      leave ()
    done;
    leave ();
    {
      own = float_of_int child.self_ns /. float_of_int k;
      outer = float_of_int parent.self_ns /. float_of_int k;
    }
  in
  (* the cheapest of a few tries: interference only ever adds time *)
  List.fold_left
    (fun a b -> { own = Float.min a.own b.own; outer = Float.min a.outer b.outer })
    (once ())
    (List.init 4 (fun _ -> once ()))

(* Self ns with every probe this span paid for taken out. *)
let corrected_ns cost s =
  Float.max 0.0
    (float_of_int s.self_ns
    -. (float_of_int s.calls *. cost.own)
    -. (float_of_int s.children *. cost.outer))

(* ---------------- engine wrappers ---------------- *)

module type ENGINE = Mvcc.Engine.S

(* Latency only: what every measured round runs. *)
module Timed (E : ENGINE) : ENGINE with type t = E.t and type table = E.table =
struct
  include E

  let begin_txn t =
    Latency.start ();
    E.begin_txn t

  let commit t txn =
    match E.commit t txn with
    | r ->
        Latency.stop ();
        r
    | exception e ->
        Latency.stop ();
        raise e

  let abort t txn =
    E.abort t txn;
    Latency.stop ()
end

(* Latency plus a span around every engine call. Written out per call:
   a closure-taking helper would allocate in the parent span. *)
module Traced (E : ENGINE) : ENGINE with type t = E.t and type table = E.table =
struct
  include E

  let s_read = op "read"
  and s_update = op "update"
  and s_insert = op "insert"
  and s_delete = op "delete"
  and s_lookup = op "lookup"
  and s_range = op "range_pk"
  and s_scan = op "scan"
  and s_commit = op "commit"
  and s_begin = op "begin_txn"
  and s_abort = op "abort"
  and s_gc = op "gc"

  let begin_txn t =
    Latency.start ();
    enter s_begin;
    match E.begin_txn t with
    | r ->
        leave ();
        r
    | exception e ->
        leave ();
        raise e

  let commit t txn =
    enter s_commit;
    match E.commit t txn with
    | r ->
        leave ();
        Latency.stop ();
        r
    | exception e ->
        leave ();
        Latency.stop ();
        raise e

  let abort t txn =
    enter s_abort;
    match E.abort t txn with
    | () ->
        leave ();
        Latency.stop ()
    | exception e ->
        leave ();
        Latency.stop ();
        raise e

  let insert t txn tbl row =
    enter s_insert;
    match E.insert t txn tbl row with
    | r ->
        leave ();
        r
    | exception e ->
        leave ();
        raise e

  let read t txn tbl ~pk =
    enter s_read;
    match E.read t txn tbl ~pk with
    | r ->
        leave ();
        r
    | exception e ->
        leave ();
        raise e

  let update t txn tbl ~pk f =
    enter s_update;
    match E.update t txn tbl ~pk f with
    | r ->
        leave ();
        r
    | exception e ->
        leave ();
        raise e

  let delete t txn tbl ~pk =
    enter s_delete;
    match E.delete t txn tbl ~pk with
    | r ->
        leave ();
        r
    | exception e ->
        leave ();
        raise e

  let lookup t txn tbl ~col ~key =
    enter s_lookup;
    match E.lookup t txn tbl ~col ~key with
    | r ->
        leave ();
        r
    | exception e ->
        leave ();
        raise e

  let range_pk t txn tbl ~lo ~hi =
    enter s_range;
    match E.range_pk t txn tbl ~lo ~hi with
    | r ->
        leave ();
        r
    | exception e ->
        leave ();
        raise e

  let scan t txn tbl f =
    enter s_scan;
    match E.scan t txn tbl f with
    | r ->
        leave ();
        r
    | exception e ->
        leave ();
        raise e

  let gc t =
    enter s_gc;
    match E.gc t with
    | () -> leave ()
    | exception e ->
        leave ();
        raise e
end

(* ---------------- device and checker wrappers ---------------- *)

(* The data device seen through spans, built the way Faultdev.wrap
   builds its wrapper. The inner device keeps no per-request records:
   the wrapper's trace is the one the database and the pins read. *)
let traced_device d =
  Flashsim.Blocktrace.set_keep_records (Flashsim.Device.trace d) false;
  Flashsim.Device.make ~name:(Flashsim.Device.name d)
    ~submit_impl:(fun ~now op ~sector ~bytes ->
      enter submit;
      match Flashsim.Device.submit d ~now op ~sector ~bytes with
      | r ->
          leave ();
          r
      | exception e ->
          leave ();
          raise e)
    ~info_impl:(fun () -> Flashsim.Device.info d)
    ~trim_impl:(fun ~sector ~bytes ->
      enter trim;
      match Flashsim.Device.trim d ~sector ~bytes with
      | () -> leave ()
      | exception e ->
          leave ();
          raise e)
    ()

(* The SI checker behind a span: it subscribes to a private bus that a
   timed relay on the database's bus feeds, so every event it consumes
   is charged to [obs.checker]. The relay passes on only the events
   Sichecker.attach handles; probing the others would cost more than
   the checker spends ignoring them. *)
let traced_checker bus =
  let inner = Sias_obs.Bus.create () in
  let c = Mvcc.Sichecker.attach inner in
  Sias_obs.Bus.subscribe bus (function
    | ( Mvcc.Db.Event.Txn_snapshot _ | Mvcc.Db.Event.Row_read _ | Mvcc.Db.Event.Row_write _
      | Sias_obs.Bus.Txn_commit _ | Sias_obs.Bus.Txn_abort _ ) as ev -> (
        enter checker;
        match Sias_obs.Bus.publish inner ev with
        | () -> leave ()
        | exception e ->
            leave ();
            raise e)
    | _ -> ());
  c
