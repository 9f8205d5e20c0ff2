module Simclock = Sias_util.Simclock
module Bus = Sias_obs.Bus
module Crashpoint = Sias_chaos.Crashpoint

type policy =
  | T1_bgwriter of { interval : float; max_pages : int }
  | T2_checkpoint_only

type t = {
  pool : Bufpool.t;
  clock : Simclock.t;
  policy : policy;
  checkpoint_interval : float;
  before_checkpoint : unit -> unit;
  on_checkpoint : unit -> unit;
  bus : Bus.t option;
  mutable next_bgwriter : float;
  mutable next_checkpoint : float;
  mutable checkpoints : int;
  mutable bgwriter_rounds : int;
}

let create pool ~clock ~policy ?(checkpoint_interval = 30.0)
    ?(before_checkpoint = fun () -> ()) ?(on_checkpoint = fun () -> ()) ?bus () =
  let now = Simclock.now clock in
  let next_bgwriter =
    match policy with
    | T1_bgwriter { interval; _ } -> now +. interval
    | T2_checkpoint_only -> infinity
  in
  {
    pool;
    clock;
    policy;
    checkpoint_interval;
    before_checkpoint;
    on_checkpoint;
    bus;
    next_bgwriter;
    next_checkpoint = now +. checkpoint_interval;
    checkpoints = 0;
    bgwriter_rounds = 0;
  }

let obs t =
  match t.bus with Some b when Bus.active b -> Some b | _ -> None

let flushes_delta t f =
  match obs t with
  | None ->
      f ();
      (None, 0)
  | Some b ->
      let before = (Bufpool.stats t.pool).Bufpool.flushes in
      f ();
      (Some b, (Bufpool.stats t.pool).Bufpool.flushes - before)

let run_checkpoint t =
  Crashpoint.reach "bgwriter.checkpoint.pre";
  (* WAL first: buffered log records must reach the device before the
     heap pages they describe (the commit pipeline's flush hook) *)
  t.before_checkpoint ();
  Crashpoint.reach "bgwriter.checkpoint.mid";
  let t0 = Simclock.now t.clock in
  let b, pages = flushes_delta t (fun () -> Bufpool.flush_all t.pool ~sync:false) in
  (match b with
  | Some b ->
      Bus.publish b (Bus.Checkpoint { pages });
      Bus.publish b
        (Bus.Span
           {
             cat = "storage";
             name = "checkpoint";
             tid = 102;
             t0;
             t1 = Simclock.now t.clock;
           })
  | None -> ());
  t.on_checkpoint ();
  t.checkpoints <- t.checkpoints + 1;
  Crashpoint.reach "bgwriter.checkpoint.post"

let checkpoint_now t =
  run_checkpoint t;
  t.next_checkpoint <- Simclock.now t.clock +. t.checkpoint_interval

let tick t =
  let now = Simclock.now t.clock in
  (match t.policy with
  | T1_bgwriter { interval; max_pages } ->
      while t.next_bgwriter <= now do
        let b, pages =
          flushes_delta t (fun () -> Bufpool.flush_some t.pool ~max_pages)
        in
        (match b with
        | Some b -> Bus.publish b (Bus.Bgwriter_pass { pages })
        | None -> ());
        t.bgwriter_rounds <- t.bgwriter_rounds + 1;
        t.next_bgwriter <- t.next_bgwriter +. interval
      done
  | T2_checkpoint_only -> ());
  while t.next_checkpoint <= now do
    run_checkpoint t;
    t.next_checkpoint <- t.next_checkpoint +. t.checkpoint_interval
  done

let checkpoints t = t.checkpoints
let bgwriter_rounds t = t.bgwriter_rounds
