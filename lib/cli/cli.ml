open Cmdliner
open Harness.Experiments
module C = Sias_txn.Contention

(* A conv from a parser that reports its own message. *)
let of_result parse print =
  Arg.conv ((fun s -> Result.map_error (fun e -> `Msg e) (parse s)), print)

let at_least lo c =
  let pp = Arg.conv_printer c in
  let parse s =
    match Arg.conv_parser c s with
    | Ok v when v < lo -> Error (`Msg (Format.asprintf "%s is below the minimum %a" s pp lo))
    | r -> r
  in
  Arg.conv (parse, pp)

let engine_conv =
  of_result
    (fun s ->
      match Mvcc.Engine.resolve s with
      | Some (key, _) -> Ok key
      | None ->
          Error
            (Printf.sprintf "unknown engine %S; known engines: %s" s
               (Mvcc.Engine.known_keys_hint ())))
    (fun fmt e -> Format.pp_print_string fmt (engine_name e))

let isolation_conv =
  of_result
    (fun s ->
      match Mvcc.Isolation.of_string s with
      | Some l -> Ok (Mvcc.Isolation.to_string l)
      | None ->
          Error
            (Printf.sprintf "unknown isolation level %S; known levels: %s" s
               (Mvcc.Isolation.known_keys_hint ())))
    Format.pp_print_string

let device_conv =
  let parse = function
    | "ssd" -> Ok Ssd_single
    | "hdd" -> Ok Hdd_single
    | s when String.length s > 4 && String.sub s 0 4 = "ssd:" -> (
        match int_of_string_opt (String.sub s 4 (String.length s - 4)) with
        | Some blocks when blocks > 8 -> Ok (Ssd_sized blocks)
        | _ -> Error "ssd:<blocks> needs a positive block count")
    | "raid2" -> Ok (Ssd_raid 2)
    | "raid6" -> Ok (Ssd_raid 6)
    | s -> Error (Printf.sprintf "unknown device %S (ssd|hdd|raid2|raid6)" s)
  in
  let print fmt = function
    | Ssd_single -> Format.pp_print_string fmt "ssd"
    | Ssd_sized b -> Format.fprintf fmt "ssd:%d" b
    | Hdd_single -> Format.pp_print_string fmt "hdd"
    | Ssd_raid n -> Format.fprintf fmt "raid%d" n
  in
  of_result parse print

let onoff_conv = Arg.enum [ ("on", true); ("off", false) ]

let repl_mode_conv =
  of_result
    (function
      | "off" -> Ok None
      | s -> (
          match Sias_repl.Repl.mode_of_string s with
          | Ok m -> Ok (Some m)
          | Error e -> Error (e ^ " (or off)")))
    (fun fmt m ->
      Format.pp_print_string fmt
        (match m with None -> "off" | Some m -> Sias_repl.Repl.mode_name m))

let isolation =
  Arg.(
    value
    & opt isolation_conv "si"
    & info [ "isolation" ]
        ~doc:
          "Isolation level: si (default), ssi (serializable) or wsi \
           (write-snapshot).")

let index =
  Arg.(
    value
    & opt
        (of_result
           (fun s -> Result.map (fun _ -> s) (Mvcc.Index.kind_of_string s))
           Format.pp_print_string)
        "array"
    & info [ "index" ]
        ~doc:
          "Index implementation: array (in-memory node images rebuilt from \
           the heap at recovery; the default and the determinism oracle) or \
           paged (WAL-logged slotted B+Tree pages resident in the buffer \
           pool, replayed byte-exact at recovery).")

type overlay = {
  fault_seed : int option;
  fault_profile : Flashsim.Faultdev.profile;
  synchronous_commit : bool;
  commit_delay_s : float;
  metrics_out : string option;
  trace_out : string option;
}

let overlay =
  let open Term.Syntax in
  let+ fault_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "faults" ]
          ~doc:"Inject device faults (transient read errors, bit rot, torn writes) seeded by $(docv)."
          ~docv:"SEED")
  and+ fault_profile =
    Arg.(
      value
      & opt
          (of_result Flashsim.Faultdev.profile_of_string (fun fmt p ->
               Format.pp_print_string fmt (Flashsim.Faultdev.profile_name p)))
          Flashsim.Faultdev.light
      & info [ "fault-profile" ] ~doc:"Fault rates: none, light or heavy.")
  and+ synchronous_commit =
    Arg.(
      value
      & opt onoff_conv true
      & info [ "synchronous-commit" ]
          ~doc:
            "off acks commits at WAL append and trickle-flushes in the \
             background (a crash may lose the last instants of acked work, \
             never corrupt the log).")
  and+ commit_delay_s =
    Arg.(
      value
      & opt (at_least 0.0 float) 0.0
      & info [ "commit-delay" ]
          ~doc:
            "Group commits arriving within $(docv) simulated seconds behind \
             one shared fsync (0 = per-commit fsync)."
          ~docv:"SECONDS")
  and+ metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ]
          ~doc:"Write run-phase metrics as Prometheus text to $(docv)." ~docv:"PATH")
  and+ trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ]
          ~doc:
            "Write a Chrome trace-event JSON of the run phase to $(docv) (open \
             in Perfetto or chrome://tracing)."
          ~docv:"PATH")
  in
  { fault_seed; fault_profile; synchronous_commit; commit_delay_s; metrics_out; trace_out }

let fill_in (o : overlay) (s : setup) =
  let s =
    match (o.fault_seed, s.fault_seed) with
    | Some _, None -> { s with fault_seed = o.fault_seed; fault_profile = o.fault_profile }
    | _ -> s
  in
  let s =
    if s.synchronous_commit && s.commit_delay_s = 0.0 then
      { s with synchronous_commit = o.synchronous_commit; commit_delay_s = o.commit_delay_s }
    else s
  in
  let either own flag = match own with None -> flag | Some _ -> own in
  {
    s with
    metrics_out = either s.metrics_out o.metrics_out;
    trace_out = either s.trace_out o.trace_out;
  }

let setup =
  let open Term.Syntax in
  let+ engine =
    Arg.(value & opt engine_conv "sias" & info [ "e"; "engine" ] ~doc:"Engine: si, si-cv, sias, sias-v.")
  and+ isolation = isolation
  and+ index = index
  and+ device =
    Arg.(value & opt device_conv Ssd_single & info [ "device" ] ~doc:"ssd, ssd:<blocks>, hdd, raid2, raid6.")
  and+ warehouses = Arg.(value & opt int 20 & info [ "w"; "warehouses" ] ~doc:"TPC-C warehouses.")
  and+ duration_s = Arg.(value & opt float 30.0 & info [ "d"; "duration" ] ~doc:"Simulated seconds.")
  and+ buffer_pages =
    Arg.(value & opt int 2048 & info [ "buffer" ] ~doc:"Buffer pool pages (8 KB each).")
  and+ flush =
    Arg.(
      value
      & opt (enum [ ("t1", T1); ("t2", T2) ]) T2
      & info [ "flush" ] ~doc:"t1 (bgwriter) or t2 (checkpoint).")
  and+ gc =
    Arg.(value & opt (some float) (Some 10.0) & info [ "gc" ] ~doc:"GC interval (sim s); 0 disables.")
  and+ scale_div =
    Arg.(value & opt int 100 & info [ "scale-div" ] ~doc:"Cardinality divisor vs spec TPC-C.")
  and+ seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")
  and+ o = overlay
  and+ policy =
    Arg.(
      value
      & opt
          (of_result C.policy_of_string (fun fmt p ->
               Format.pp_print_string fmt (C.policy_to_string p)))
          C.No_wait
      & info [ "conflict-policy" ]
          ~doc:"Lock-conflict policy: no-wait, wait-die, wound-wait or detect.")
  and+ retries =
    Arg.(
      value
      & opt int 0
      & info [ "retries" ]
          ~doc:"Resubmit conflict-aborted transactions up to $(docv) times (0 = off).")
  and+ max_inflight =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-inflight" ] ~doc:"Admission cap on concurrently running transactions.")
  and+ check_si =
    Arg.(
      value & flag
      & info [ "check-si" ]
          ~doc:"Verify snapshot-isolation invariants online; exit 1 on violation.")
  and+ terminals_per_warehouse =
    Arg.(value & opt int 1 & info [ "terminals" ] ~doc:"Terminals per warehouse.")
  and+ stats_interval_s =
    Arg.(
      value
      & opt (some float) None
      & info [ "stats-interval" ]
          ~doc:"Print a progress line to stderr every $(docv) simulated seconds."
          ~docv:"SECONDS")
  and+ wal_device =
    Arg.(
      value
      & opt (some device_conv) None
      & info [ "wal-device" ]
          ~doc:
            "Put the WAL on its own modeled device (ssd, ssd:<blocks>, hdd, \
             raid2, raid6) so commit fsyncs cost simulated time; default \
             in-memory sink.")
  and+ repl_mode =
    Arg.(
      value
      & opt repl_mode_conv None
      & info [ "repl" ]
          ~doc:
            "Ship the WAL to a hot standby: off (default), async (ship \
             after local fsync) or remote-flush (commits wait for the \
             standby flush acknowledgement).")
  and+ repl_link =
    Arg.(
      value
      & opt
          (of_result Sias_repl.Link.profile_of_string (fun fmt p ->
               Format.pp_print_string fmt (Sias_repl.Link.profile_name p)))
          Sias_repl.Link.clean
      & info [ "repl-link" ] ~doc:"Replication-link fault profile: clean, wan, lossy or chaos.")
  and+ repl_seed =
    Arg.(
      value
      & opt int 7
      & info [ "repl-seed" ] ~doc:"Seed for the replication link's deterministic fault stream.")
  in
  {
    (default_setup ~engine ~warehouses) with
    isolation;
    index;
    device;
    duration_s;
    buffer_pages;
    flush;
    gc_interval_s = (match gc with Some g when g > 0.0 -> Some g | _ -> None);
    scale_div;
    seed;
    fault_seed = o.fault_seed;
    fault_profile = o.fault_profile;
    contention = { C.default_settings with C.policy; max_inflight };
    retries;
    (* serializable levels always run under the online checker: the whole
       point of ssi/wsi is a certifiable absence of cycles *)
    check_si = check_si || isolation <> "si";
    terminals_per_warehouse;
    metrics_out = o.metrics_out;
    trace_out = o.trace_out;
    stats_interval_s;
    synchronous_commit = o.synchronous_commit;
    commit_delay_s = o.commit_delay_s;
    wal_device;
    repl_mode;
    repl_link;
    repl_seed;
  }

let eval cmd =
  exit
    (match Cmd.eval_value cmd with
    | Ok _ -> Cmd.Exit.ok
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
