module Rng = Sias_util.Rng
module Stats = Sias_util.Stats
module Simclock = Sias_util.Simclock
module Contention = Sias_txn.Contention
module Commitpipe = Sias_wal.Commitpipe
module Value = Mvcc.Value
module S = Tpcc_schema
module Col = Tpcc_schema.Col

type tx_kind = New_order | Payment | Order_status | Delivery | Stock_level

let tx_kind_to_string = function
  | New_order -> "new-order"
  | Payment -> "payment"
  | Order_status -> "order-status"
  | Delivery -> "delivery"
  | Stock_level -> "stock-level"

let all_kinds = [ New_order; Payment; Order_status; Delivery; Stock_level ]

type outcome = Committed | User_abort | Conflict_abort | Failed

type config = {
  warehouses : int;
  scale : Tpcc_schema.scale;
  duration_s : float;
  terminals_per_warehouse : int;
  think_time_s : float;
  seed : int;
  gc_interval_s : float option;
  mix : (int * tx_kind) list;
  retry : Contention.retry_config option;
}

let default_config ~warehouses =
  {
    warehouses;
    scale = S.scaled ();
    duration_s = 60.0;
    terminals_per_warehouse = 1;
    think_time_s = 1.0;
    seed = 42;
    gc_interval_s = None;
    mix =
      [ (45, New_order); (43, Payment); (4, Order_status); (4, Delivery); (4, Stock_level) ];
    retry = None;
  }

type kind_stats = {
  committed : int;
  user_aborts : int;
  conflicts : int;
  failures : int;
  retries : int;
  gave_ups : int;
  shed : int;
  resp : Stats.Sample.t;
}

type result = {
  config : config;
  elapsed_s : float;
  notpm : float;
  total_committed : int;
  total_aborted : int;
  per_kind : (tx_kind * kind_stats) list;
}

let kind_stats result kind = List.assoc kind result.per_kind

let resp_mean result kind =
  let ks = kind_stats result kind in
  Stats.Sample.mean ks.resp

let resp_p90 result kind =
  let ks = kind_stats result kind in
  if Stats.Sample.count ks.resp = 0 then 0.0 else Stats.Sample.percentile ks.resp 90.0

let resp_max result kind =
  let ks = kind_stats result kind in
  if Stats.Sample.count ks.resp = 0 then 0.0 else Stats.Sample.max ks.resp

let pp_result fmt r =
  Format.fprintf fmt "@[<v>TPC-C: %d WH, %.0fs sim -> %.0f NOTPM (%d committed, %d aborted)@,"
    r.config.warehouses r.elapsed_s r.notpm r.total_committed r.total_aborted;
  List.iter
    (fun (k, ks) ->
      Format.fprintf fmt "  %-12s ok=%-6d conflicts=%-4d resp_mean=%.4fs"
        (tx_kind_to_string k) ks.committed ks.conflicts (Stats.Sample.mean ks.resp);
      (* contention-era fields only appear when the feature produced them,
         so default runs print byte-identically to the historical format *)
      if ks.retries > 0 then Format.fprintf fmt " retries=%d" ks.retries;
      if ks.gave_ups > 0 then Format.fprintf fmt " gave-up=%d" ks.gave_ups;
      if ks.shed > 0 then Format.fprintf fmt " shed=%d" ks.shed;
      Format.fprintf fmt "@,")
    r.per_kind;
  Format.fprintf fmt "@]"

exception Tx_abort of outcome

module Make (E : Mvcc.Engine.S) = struct
  type tables = {
    warehouse : E.table;
    district : E.table;
    customer : E.table;
    history : E.table;
    new_order : E.table;
    orders : E.table;
    order_line : E.table;
    item : E.table;
    stock : E.table;
  }

  let create_tables eng =
    {
      warehouse = E.create_table eng ~name:"warehouse" ~pk_col:0 ();
      district = E.create_table eng ~name:"district" ~pk_col:0 ();
      customer = E.create_table eng ~name:"customer" ~pk_col:0 ~secondary:[ Col.c_last ] ();
      history = E.create_table eng ~name:"history" ~pk_col:0 ();
      new_order = E.create_table eng ~name:"new_order" ~pk_col:0 ();
      orders = E.create_table eng ~name:"orders" ~pk_col:0 ~secondary:[ Col.o_c_key ] ();
      order_line = E.create_table eng ~name:"order_line" ~pk_col:0 ();
      item = E.create_table eng ~name:"item" ~pk_col:0 ();
      stock = E.create_table eng ~name:"stock" ~pk_col:0 ();
    }

  (* ---------------- helpers ---------------- *)

  let geti row col = Value.int row.(col)
  let getf row col = Value.float row.(col)

  let seti row col v =
    let row = Array.copy row in
    row.(col) <- Value.Int v;
    row

  let setf row col v =
    let row = Array.copy row in
    row.(col) <- Value.Float v;
    row

  let must_ok = function
    | Ok () -> ()
    | Error Mvcc.Engine.Write_conflict | Error Mvcc.Engine.Serialization_failure ->
        raise (Tx_abort Conflict_abort)
    | Error Mvcc.Engine.Not_found | Error Mvcc.Engine.Duplicate_key ->
        raise (Tx_abort Failed)

  (* Loader commits run serially; a failure there is a bug, not a
     retryable conflict. *)
  let commit_exn eng txn =
    match E.commit eng txn with
    | Ok () -> ()
    | Error e -> invalid_arg ("tpcc load: commit failed: " ^ Mvcc.Engine.error_to_string e)

  (* Commit a workload transaction. On a serialization failure the engine
     has already aborted the transaction internally, so the outcome is
     returned directly rather than via [Tx_abort] (whose handler would
     abort a second time). *)
  let finish eng txn =
    match E.commit eng txn with Ok () -> Committed | Error _ -> Conflict_abort

  let must_read eng txn table ~pk =
    match E.read eng txn table ~pk with
    | Some row -> row
    | None -> raise (Tx_abort Failed)

  (* ---------------- loader ---------------- *)

  let load eng tables cfg =
    let rng = Rng.create cfg.seed in
    let s = cfg.scale in
    let in_batches n per f =
      let i = ref 0 in
      while !i < n do
        let txn = E.begin_txn eng in
        let stop = Stdlib.min n (!i + per) in
        while !i < stop do
          f txn !i;
          incr i
        done;
        commit_exn eng txn
      done
    in
    (* items are global *)
    in_batches s.items 100 (fun txn i ->
        must_ok (E.insert eng txn tables.item (S.item_row rng s ~i:(i + 1))));
    for w = 1 to cfg.warehouses do
      let txn = E.begin_txn eng in
      must_ok (E.insert eng txn tables.warehouse (S.warehouse_row rng ~w));
      for d = 1 to s.districts_per_warehouse do
        must_ok (E.insert eng txn tables.district (S.district_row rng ~w ~d))
      done;
      commit_exn eng txn;
      in_batches s.stock_per_warehouse 100 (fun txn i ->
          must_ok (E.insert eng txn tables.stock (S.stock_row rng s ~w ~i:(i + 1))));
      for d = 1 to s.districts_per_warehouse do
        in_batches s.customers_per_district 100 (fun txn c ->
            must_ok (E.insert eng txn tables.customer (S.customer_row rng s ~w ~d ~c:(c + 1))));
        (* initial orders: one per customer in random order; the newest
           third is still undelivered (has a new_order row) *)
        let perm = Array.init s.initial_orders_per_district (fun i -> i + 1) in
        Rng.shuffle rng perm;
        in_batches s.initial_orders_per_district 50 (fun txn idx ->
            let o = idx + 1 in
            let c = perm.(idx) in
            let c_key = S.customer_key ~w ~d ~c in
            let ol_cnt = Rng.int_incl rng 5 15 in
            let okey = S.order_key ~w ~d ~o in
            let delivered = o <= s.initial_orders_per_district * 2 / 3 in
            let carrier = if delivered then Rng.int_incl rng 1 10 else 0 in
            must_ok
              (E.insert eng txn tables.orders
                 (S.orders_row ~w ~d ~o ~c_key ~entry_d:0.0 ~ol_cnt ~carrier));
            if not delivered then
              must_ok (E.insert eng txn tables.new_order (S.new_order_row ~w ~d ~o));
            for ol = 1 to ol_cnt do
              let i_id = Rng.int_incl rng 1 s.items in
              must_ok
                (E.insert eng txn tables.order_line
                   (S.order_line_row rng ~okey ~ol ~i_id ~supply_w:w
                      ~qty:(Rng.int_incl rng 1 10)
                      ~amount:(Rng.float rng 100.0)
                      ~delivery_d:(if delivered then 1.0 else 0.0)))
            done);
        (* leave next_o_id pointing past the loaded orders *)
        let dkey = S.district_key ~w ~d in
        let txn = E.begin_txn eng in
        must_ok
          (E.update eng txn tables.district ~pk:dkey (fun row ->
               seti row Col.d_next_o_id (s.initial_orders_per_district + 1)));
        commit_exn eng txn
      done
    done

  (* ---------------- session state ---------------- *)

  type session = {
    eng : E.t;
    tables : tables;
    cfg : config;
    mutable next_h_id : int;
    delivery_cursor : (int, int) Hashtbl.t; (* district_key -> next o to deliver *)
  }

  let make_session eng tables cfg =
    { eng; tables; cfg; next_h_id = 1; delivery_cursor = Hashtbl.create 64 }

  (* select a customer: 60% by last name, 40% by id (TPC-C 2.5.1.2) *)
  let select_customer st txn rng ~w ~d =
    let s = st.cfg.scale in
    if Rng.int rng 100 < 60 then begin
      let name = Tpcc_random.random_last_name rng ~max_unique:s.customers_per_district in
      let key = Value.to_key (Value.Str name) in
      let rows = E.lookup st.eng txn st.tables.customer ~col:Col.c_last ~key in
      let mine =
        List.filter (fun row -> geti row 1 = w && geti row 2 = d) rows
        |> List.sort (fun a b -> String.compare (Value.str a.(Col.c_first)) (Value.str b.(Col.c_first)))
      in
      match mine with
      | [] ->
          (* scaled-down data may miss a name: fall back to by-id *)
          let c = Tpcc_random.customer_id rng ~max:s.customers_per_district in
          must_read st.eng txn st.tables.customer ~pk:(S.customer_key ~w ~d ~c)
      | rows -> List.nth rows (List.length rows / 2)
    end
    else begin
      let c = Tpcc_random.customer_id rng ~max:s.customers_per_district in
      must_read st.eng txn st.tables.customer ~pk:(S.customer_key ~w ~d ~c)
    end

  (* ---------------- the five transactions ---------------- *)

  let new_order st rng ~w ~now =
    let eng = st.eng and tb = st.tables in
    let s = st.cfg.scale in
    let txn = E.begin_txn eng in
    try
      let d = Rng.int_incl rng 1 s.districts_per_warehouse in
      let c = Tpcc_random.customer_id rng ~max:s.customers_per_district in
      let c_key = S.customer_key ~w ~d ~c in
      let _wrow = must_read eng txn tb.warehouse ~pk:w in
      let _crow = must_read eng txn tb.customer ~pk:c_key in
      (* allocate the order id by bumping d_next_o_id *)
      let o_id = ref 0 in
      must_ok
        (E.update eng txn tb.district ~pk:(S.district_key ~w ~d) (fun row ->
             o_id := geti row Col.d_next_o_id;
             seti row Col.d_next_o_id (!o_id + 1)));
      let o = !o_id in
      let okey = S.order_key ~w ~d ~o in
      let ol_cnt = Rng.int_incl rng 5 15 in
      let rollback = Rng.int rng 100 = 0 in
      must_ok
        (E.insert eng txn tb.orders
           (S.orders_row ~w ~d ~o ~c_key ~entry_d:now ~ol_cnt ~carrier:0));
      must_ok (E.insert eng txn tb.new_order (S.new_order_row ~w ~d ~o));
      for ol = 1 to ol_cnt do
        if rollback && ol = ol_cnt then
          (* unused item number: the intentional 1% rollback *)
          raise (Tx_abort User_abort);
        let i_id = Tpcc_random.item_id rng ~max:s.items in
        let supply_w =
          if st.cfg.warehouses > 1 && Rng.int rng 100 = 0 then begin
            let other = ref w in
            while !other = w do
              other := Rng.int_incl rng 1 st.cfg.warehouses
            done;
            !other
          end
          else w
        in
        let irow = must_read eng txn tb.item ~pk:i_id in
        let qty = Rng.int_incl rng 1 10 in
        must_ok
          (E.update eng txn tb.stock ~pk:(S.stock_key ~w:supply_w ~i:i_id) (fun srow ->
               let sq = geti srow Col.s_qty in
               let sq' = if sq - qty >= 10 then sq - qty else sq - qty + 91 in
               let srow = seti srow Col.s_qty sq' in
               let srow = seti srow Col.s_ytd (geti srow Col.s_ytd + qty) in
               let srow = seti srow Col.s_order_cnt (geti srow Col.s_order_cnt + 1) in
               if supply_w <> w then
                 seti srow Col.s_remote_cnt (geti srow Col.s_remote_cnt + 1)
               else srow));
        let amount = float_of_int qty *. getf irow Col.i_price in
        must_ok
          (E.insert eng txn tb.order_line
             (S.order_line_row rng ~okey ~ol ~i_id ~supply_w ~qty ~amount ~delivery_d:0.0))
      done;
      finish eng txn
    with Tx_abort o ->
      E.abort eng txn;
      o

  let payment st rng ~w ~now:_ =
    let eng = st.eng and tb = st.tables in
    let s = st.cfg.scale in
    let txn = E.begin_txn eng in
    try
      let d = Rng.int_incl rng 1 s.districts_per_warehouse in
      (* 85% home district, 15% remote customer *)
      let cw, cd =
        if st.cfg.warehouses > 1 && Rng.int rng 100 >= 85 then begin
          let other = ref w in
          while !other = w do
            other := Rng.int_incl rng 1 st.cfg.warehouses
          done;
          (!other, Rng.int_incl rng 1 s.districts_per_warehouse)
        end
        else (w, d)
      in
      let amount = 1.0 +. Rng.float rng 4999.0 in
      must_ok
        (E.update eng txn tb.warehouse ~pk:w (fun row ->
             setf row Col.w_ytd (getf row Col.w_ytd +. amount)));
      must_ok
        (E.update eng txn tb.district ~pk:(S.district_key ~w ~d) (fun row ->
             setf row Col.d_ytd (getf row Col.d_ytd +. amount)));
      let crow = select_customer st txn rng ~w:cw ~d:cd in
      let c_key = geti crow 0 in
      must_ok
        (E.update eng txn tb.customer ~pk:c_key (fun row ->
             let row = setf row Col.c_balance (getf row Col.c_balance -. amount) in
             let row = setf row Col.c_ytd_payment (getf row Col.c_ytd_payment +. amount) in
             let row = seti row Col.c_payment_cnt (geti row Col.c_payment_cnt + 1) in
             if Value.str row.(Col.c_credit) = "BC" then begin
               let data = Value.str row.(Col.c_data) in
               let note = Printf.sprintf "|%d,%d,%d,%.2f" c_key w d amount in
               let merged = note ^ data in
               let keep = Stdlib.min (String.length merged) (String.length data) in
               let row = Array.copy row in
               row.(Col.c_data) <- Value.Str (String.sub merged 0 keep);
               row
             end
             else row));
      let h_id = st.next_h_id in
      st.next_h_id <- h_id + 1;
      must_ok
        (E.insert eng txn tb.history (S.history_row rng ~h_id ~c_key ~w ~d ~amount));
      finish eng txn
    with Tx_abort o ->
      E.abort eng txn;
      o

  let order_status st rng ~w ~now:_ =
    let eng = st.eng and tb = st.tables in
    let s = st.cfg.scale in
    let txn = E.begin_txn eng in
    try
      let d = Rng.int_incl rng 1 s.districts_per_warehouse in
      let crow = select_customer st txn rng ~w ~d in
      let c_key = geti crow 0 in
      let orders = E.lookup eng txn tb.orders ~col:Col.o_c_key ~key:c_key in
      (match
         List.fold_left
           (fun best row ->
             match best with
             | Some b when geti b Col.o_id >= geti row Col.o_id -> best
             | _ -> Some row)
           None orders
       with
      | None -> () (* a customer may have no order yet *)
      | Some orow ->
          let okey = geti orow 0 in
          let lines =
            E.range_pk eng txn tb.order_line
              ~lo:(S.order_line_key ~okey ~ol:0)
              ~hi:(S.order_line_key ~okey ~ol:15)
          in
          List.iter (fun line -> ignore (geti line Col.ol_qty)) lines);
      finish eng txn
    with Tx_abort o ->
      E.abort eng txn;
      o

  let delivery st rng ~w ~now =
    let eng = st.eng and tb = st.tables in
    let s = st.cfg.scale in
    let txn = E.begin_txn eng in
    try
      let carrier = Rng.int_incl rng 1 10 in
      for d = 1 to s.districts_per_warehouse do
        let dkey = S.district_key ~w ~d in
        let drow = must_read eng txn tb.district ~pk:dkey in
        let next_o = geti drow Col.d_next_o_id in
        let cursor =
          match Hashtbl.find_opt st.delivery_cursor dkey with Some c -> c | None -> 1
        in
        (* oldest undelivered order: first new_order row from the cursor *)
        let rec find o =
          if o >= next_o then None
          else
            match E.read eng txn tb.new_order ~pk:(S.order_key ~w ~d ~o) with
            | Some _ -> Some o
            | None -> find (o + 1)
        in
        match find cursor with
        | None -> Hashtbl.replace st.delivery_cursor dkey next_o
        | Some o ->
            Hashtbl.replace st.delivery_cursor dkey (o + 1);
            let okey = S.order_key ~w ~d ~o in
            must_ok (E.delete eng txn tb.new_order ~pk:okey);
            let orow = must_read eng txn tb.orders ~pk:okey in
            let c_key = geti orow Col.o_c_key in
            must_ok
              (E.update eng txn tb.orders ~pk:okey (fun row ->
                   seti row Col.o_carrier_id carrier));
            let lines =
              E.range_pk eng txn tb.order_line
                ~lo:(S.order_line_key ~okey ~ol:0)
                ~hi:(S.order_line_key ~okey ~ol:15)
            in
            let total = ref 0.0 in
            List.iter
              (fun line ->
                total := !total +. getf line Col.ol_amount;
                must_ok
                  (E.update eng txn tb.order_line ~pk:(geti line 0) (fun r ->
                       setf r Col.ol_delivery_d now)))
              lines;
            must_ok
              (E.update eng txn tb.customer ~pk:c_key (fun row ->
                   let row = setf row Col.c_balance (getf row Col.c_balance +. !total) in
                   seti row Col.c_delivery_cnt (geti row Col.c_delivery_cnt + 1)))
      done;
      finish eng txn
    with Tx_abort o ->
      E.abort eng txn;
      o

  let stock_level st rng ~w ~now:_ =
    let eng = st.eng and tb = st.tables in
    let s = st.cfg.scale in
    let txn = E.begin_txn eng in
    try
      let d = Rng.int_incl rng 1 s.districts_per_warehouse in
      let threshold = Rng.int_incl rng 10 20 in
      let drow = must_read eng txn tb.district ~pk:(S.district_key ~w ~d) in
      let next_o = geti drow Col.d_next_o_id in
      let first_o = Stdlib.max 1 (next_o - 20) in
      let lines =
        E.range_pk eng txn tb.order_line
          ~lo:(S.order_line_key ~okey:(S.order_key ~w ~d ~o:first_o) ~ol:0)
          ~hi:(S.order_line_key ~okey:(S.order_key ~w ~d ~o:(next_o - 1)) ~ol:15)
      in
      let items = Hashtbl.create 64 in
      List.iter (fun line -> Hashtbl.replace items (geti line Col.ol_i_id) ()) lines;
      let low = ref 0 in
      Hashtbl.iter
        (fun i_id () ->
          match E.read eng txn tb.stock ~pk:(S.stock_key ~w ~i:i_id) with
          | Some srow -> if geti srow Col.s_qty < threshold then incr low
          | None -> ())
        items;
      finish eng txn
    with Tx_abort o ->
      E.abort eng txn;
      o

  let run_transaction st ~kind ~w ~rng =
    let now = Simclock.now (E.db st.eng).Mvcc.Db.clock in
    match kind with
    | New_order -> new_order st rng ~w ~now
    | Payment -> payment st rng ~w ~now
    | Order_status -> order_status st rng ~w ~now
    | Delivery -> delivery st rng ~w ~now
    | Stock_level -> stock_level st rng ~w ~now

  (* ---------------- closed-loop driver ---------------- *)

  type terminal = { home_w : int; t_rng : Rng.t; mutable ready_at : float }

  type acc = {
    mutable a_committed : int;
    mutable a_user : int;
    mutable a_conflict : int;
    mutable a_failed : int;
    mutable a_retries : int;
    mutable a_gave_up : int;
    mutable a_shed : int;
    a_resp : Stats.Sample.t;
  }

  let run eng tables cfg =
    let db = E.db eng in
    let clock = db.Mvcc.Db.clock in
    let contention = db.Mvcc.Db.contention in
    let commitpipe = db.Mvcc.Db.commitpipe in
    let st = make_session eng tables cfg in
    let rng = Rng.create (cfg.seed + 7) in
    let terminals =
      Array.init (cfg.warehouses * cfg.terminals_per_warehouse) (fun i ->
          {
            home_w = (i mod cfg.warehouses) + 1;
            t_rng = Rng.split rng;
            ready_at = Rng.float rng cfg.think_time_s;
          })
    in
    let accs =
      List.map
        (fun k ->
          ( k,
            {
              a_committed = 0;
              a_user = 0;
              a_conflict = 0;
              a_failed = 0;
              a_retries = 0;
              a_gave_up = 0;
              a_shed = 0;
              a_resp = Stats.Sample.create ();
            } ))
        all_kinds
    in
    let start = Simclock.now clock in
    let deadline = start +. cfg.duration_s in
    let next_gc =
      ref (match cfg.gc_interval_s with Some g -> start +. g | None -> infinity)
    in
    (* Group commit: a terminal whose commit is queued behind the shared
       window fsync parks (ready_at = infinity) until the group resolves;
       its response time is charged to the group's fsync completion. *)
    let pending : (int, int * tx_kind * float) Hashtbl.t = Hashtbl.create 64 in
    let resolve () =
      List.iter
        (fun (seq, completion) ->
          match Hashtbl.find_opt pending seq with
          | None -> ()
          | Some (idx, kind, arrival) ->
              Hashtbl.remove pending seq;
              let term = terminals.(idx) in
              let acc = List.assoc kind accs in
              acc.a_committed <- acc.a_committed + 1;
              Stats.Sample.add acc.a_resp (completion -. arrival);
              term.ready_at <-
                completion +. Rng.exponential term.t_rng cfg.think_time_s)
        (Commitpipe.drain_resolved commitpipe)
    in
    let running = ref true in
    while !running do
      (* groups closed since the last iteration unpark their terminals *)
      resolve ();
      (* earliest-ready terminal *)
      let best = ref 0 in
      for i = 1 to Array.length terminals - 1 do
        if terminals.(i).ready_at < terminals.(!best).ready_at then best := i
      done;
      let term = terminals.(!best) in
      if term.ready_at = infinity then begin
        (* every terminal is parked in the open commit window: close it *)
        if not (Commitpipe.close_due commitpipe ~upto:infinity) then
          failwith "tpcc: all terminals parked with no open commit group";
        resolve ()
      end
      else if term.ready_at >= deadline then running := false
      else if Commitpipe.close_due commitpipe ~upto:term.ready_at then
        (* a commit-window deadline precedes the next arrival: service it
           first so its members can re-enter the pick *)
        resolve ()
      else begin
        Simclock.advance_to clock term.ready_at;
        if Simclock.now clock >= !next_gc then begin
          (* background daemon: its device traffic contends, its duration
             does not stall foreground transactions *)
          Simclock.freeze_during clock (fun () -> E.gc eng);
          next_gc := Simclock.now clock +. Option.get cfg.gc_interval_s
        end;
        let kind = Rng.pick_weighted term.t_rng cfg.mix in
        let arrival = term.ready_at in
        let acc = List.assoc kind accs in
        let parked = ref false in
        (match Contention.admit contention with
        | Contention.Shed ->
            (* the admission gate turned the request away; the terminal
               thinks and comes back *)
            acc.a_shed <- acc.a_shed + 1
        | Contention.Admitted ->
            let outcome =
              match cfg.retry with
              | None -> run_transaction st ~kind ~w:term.home_w ~rng:term.t_rng
              | Some rcfg -> (
                  (* replay the SAME transaction parameters on retry: save
                     the generator state before the first attempt *)
                  let saved = Rng.copy term.t_rng in
                  match
                    Contention.run_with_retries contention ~cfg:rcfg
                      ~retryable:(fun o -> o = Conflict_abort)
                      ~f:(fun ~attempt ->
                        let rng =
                          if attempt = 1 then term.t_rng else Rng.copy saved
                        in
                        run_transaction st ~kind ~w:term.home_w ~rng)
                  with
                  | Contention.Completed (o, attempts) ->
                      acc.a_retries <- acc.a_retries + (attempts - 1);
                      o
                  | Contention.Gave_up (_, attempts) ->
                      acc.a_retries <- acc.a_retries + (attempts - 1);
                      acc.a_gave_up <- acc.a_gave_up + 1;
                      Conflict_abort)
            in
            Mvcc.Db.tick db;
            let finished = Simclock.now clock in
            (* one span per transaction attempt chain, on the terminal's
               trace lane (tid 0 is the trace metadata convention) *)
            if Mvcc.Db.observed db then
              Mvcc.Db.emit db
                (Sias_obs.Bus.Span
                   {
                     cat = "txn";
                     name = tx_kind_to_string kind;
                     tid = 1 + !best;
                     t0 = arrival;
                     t1 = finished;
                   });
            match outcome with
            | Committed -> (
                match Commitpipe.last_ack commitpipe with
                | Commitpipe.Queued seq ->
                    Hashtbl.replace pending seq (!best, kind, arrival);
                    parked := true;
                    term.ready_at <- infinity
                | Commitpipe.Durable _ ->
                    acc.a_committed <- acc.a_committed + 1;
                    Stats.Sample.add acc.a_resp (finished -. arrival))
            | User_abort -> acc.a_user <- acc.a_user + 1
            | Conflict_abort -> acc.a_conflict <- acc.a_conflict + 1
            | Failed -> acc.a_failed <- acc.a_failed + 1);
        if not !parked then
          term.ready_at <-
            Simclock.now clock +. Rng.exponential term.t_rng cfg.think_time_s
      end
    done;
    (* drain: commits registered inside the run still count even when the
       window's fsync lands past the simulated end *)
    ignore (Commitpipe.close_due commitpipe ~upto:infinity);
    resolve ();
    let elapsed = Simclock.now clock -. start in
    let per_kind =
      List.map
        (fun (k, a) ->
          ( k,
            {
              committed = a.a_committed;
              user_aborts = a.a_user;
              conflicts = a.a_conflict;
              failures = a.a_failed;
              retries = a.a_retries;
              gave_ups = a.a_gave_up;
              shed = a.a_shed;
              resp = a.a_resp;
            } ))
        accs
    in
    let no = List.assoc New_order per_kind in
    (* NOTPM must count exactly the committed new-order transactions:
       retries, give-ups and shed requests never inflate it *)
    assert (no.committed = Stats.Sample.count no.resp);
    let total_committed =
      List.fold_left (fun t (_, ks) -> t + ks.committed) 0 per_kind
    in
    let total_aborted =
      List.fold_left
        (fun t (_, ks) -> t + ks.user_aborts + ks.conflicts + ks.failures + ks.shed)
        0 per_kind
    in
    {
      config = cfg;
      elapsed_s = elapsed;
      notpm = (if elapsed > 0.0 then float_of_int no.committed *. 60.0 /. elapsed else 0.0);
      total_committed;
      total_aborted;
      per_kind;
    }
end
