(* Host-performance benchmark; see benchmark/README.md.

     dune exec benchmark/main.exe -- run [WORKLOAD...] [--seed N]
     dune exec benchmark/main.exe -- trace WORKLOAD
     dune exec benchmark/main.exe -- compare OLD NEW
     dune exec benchmark/main.exe -- list *)

open Cmdliner
open Sias_bench

let workload =
  Arg.enum (List.map (fun (w : Workloads.t) -> (w.Workloads.name, w)) Workloads.all)

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Seed of the generated inputs.")

let seconds =
  let positive =
    Arg.conv
      ( (fun s ->
          match int_of_string_opt s with
          | Some n when n >= 1 -> Ok n
          | _ -> Error (`Msg "expected a whole number of seconds >= 1")),
        Format.pp_print_int )
  in
  Arg.(
    value & opt positive 10
    & info [ "seconds" ] ~docv:"S"
        ~doc:
          "Measured host seconds per workload on the reference host: the run \
           does max(3, S/3) rounds of about three seconds each.")

let out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Append one result line per workload to $(docv), for compare.")

let run_cmd =
  let positional = Arg.(value & pos_all workload [] & info [] ~docv:"WORKLOAD") in
  let named =
    Arg.(value & opt_all workload [] & info [ "workload" ] ~docv:"WORKLOAD" ~doc:"Workload to run (repeatable).")
  in
  let traced =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"1 reports the per-layer metrics of a traced run instead of the end-to-end ones.")
  in
  let go a b seed seconds traced out =
    let ws = match a @ b with [] -> Workloads.all | l -> l in
    exit (Report.run ~traced ~seconds ~seed ~out ws)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Measure the workloads (all four by default) one after another and \
          print the end-to-end metrics; exits 1 if a simulated output changed.")
    Term.(const go $ positional $ named $ seed $ seconds $ traced $ out)

let trace_cmd =
  let w = Arg.(required & pos 0 (some workload) None & info [] ~docv:"WORKLOAD") in
  let go w seed seconds out = exit (Report.run ~traced:true ~seconds ~seed ~out [ w ]) in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run WORKLOAD untraced and traced, alternating, and print the \
          per-layer metrics; exits 1 if the two runs' simulated outputs differ.")
    Term.(const go $ w $ seed $ seconds $ out)

let compare_cmd =
  let file i name = Arg.(required & pos i (some file) None & info [] ~docv:name) in
  let go o n = exit (Report.compare o n) in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compare two result files written by run --out: median and quartiles \
          of every end-to-end metric per workload; exits 1 if one worsened \
          beyond its bound.")
    Term.(const go $ file 0 "OLD" $ file 1 "NEW")

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"Print the workloads and the metrics.")
    Term.(const Report.list $ const ())

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "main" ~doc:"Host-performance benchmark of the SIAS-V simulator.")
          [ run_cmd; trace_cmd; compare_cmd; list_cmd ]))
