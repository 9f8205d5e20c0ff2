(* Metrics, correctness checks, output formats and the compare tool. *)

module R = Runner
module W = Tpcc.Tpcc_workload
module T = Sias_util.Tablefmt

type better = Higher | Lower

type spec = {
  name : string;
  unit : string;
  better : better;
  bound : float;  (** share of the old median a metric may worsen by; end-to-end only *)
}

let spec ?(bound = 0.0) name unit better = { name; unit; better; bound }

(* Measured with tracing off. The bounds are what this 2-core host
   supports: its vCPU speed drifts by about 15% over minutes (a pure ALU
   loop shows it in thread CPU time too), and a slow spell of a minute or
   two spans several whole runs, so the run-to-run spread of a timing is
   5-12% in calm periods and more in noisy ones. Peak RSS does not drift
   with the CPU, but GC pacing moves it by up to 7% between seeds on the
   small-heap workload. [setup_s] has the widest bound: it is the metric
   that shows work moved out of the measured phase, and a run has only a
   few set-ups. *)
let end_to_end =
  [
    spec "txn_per_s" "txn/s" Higher ~bound:0.24;
    spec "txn_us_p50" "us" Lower ~bound:0.24;
    spec "txn_us_p99" "us" Lower ~bound:0.24;
    spec "setup_s" "s" Lower ~bound:0.25;
    spec "peak_rss_mb" "MB" Lower ~bound:0.15;
  ]

let kind_name k = String.map (function '-' -> '_' | c -> c) (W.tx_kind_to_string k)

let per_layer =
  List.concat
    [
      spec "tpcc.self_s" "s" Lower
      :: List.map (fun k -> spec ("tpcc." ^ kind_name k ^ "_us_p50") "us" Lower) W.all_kinds;
      List.concat_map
        (fun op ->
          [
            spec ("mvcc." ^ op ^ ".calls") "count" Lower;
            spec ("mvcc." ^ op ^ ".self_ns") "ns" Lower;
            spec ("mvcc." ^ op ^ ".words") "words" Lower;
          ])
        Probe.mvcc_ops;
      [
        spec "txn.hint_hits_per_txn" "count" Higher;
        spec "txn.hint_sets_per_txn" "count" Lower;
        spec "storage.hit_ratio" "ratio" Higher;
        spec "storage.misses_per_txn" "count" Lower;
        spec "storage.evictions_per_txn" "count" Lower;
        spec "storage.flushes_per_txn" "count" Lower;
        spec "storage.checkpoints" "count" Lower;
        spec "storage.bgwriter_pages" "count" Lower;
        spec "index.inserts_per_txn" "count" Lower;
        spec "index.splits" "count" Lower;
        spec "index.nodes" "count" Lower;
        spec "index.height" "count" Lower;
        spec "index.page_deltas_per_txn" "count" Lower;
        spec "wal.appends_per_txn" "count" Lower;
        spec "wal.bytes_per_txn" "B" Lower;
        spec "wal.flushes_per_txn" "count" Lower;
        spec "wal.commit_fsyncs" "count" Lower;
        spec "wal.retained_mb" "MB" Lower;
        spec "flashsim.submit.calls" "count" Lower;
        spec "flashsim.submit.ns" "ns" Lower;
        spec "flashsim.trim.calls" "count" Lower;
        spec "flashsim.trim.ns" "ns" Lower;
        spec "flashsim.host_writes" "count" Lower;
        spec "flashsim.write_amplification" "ratio" Lower;
        spec "flashsim.erases" "count" Lower;
        spec "obs.events_per_txn" "count" Lower;
        spec "obs.checker.self_ns" "ns" Lower;
        spec "obs.checker_s" "s" Lower;
        spec "obs.ssi_siread_per_txn" "count" Lower;
        spec "obs.ssi_rw_edges" "count" Lower;
        spec "obs.ssi_pivot_aborts" "count" Lower;
        spec "runtime.minor_words_per_txn" "words" Lower;
        spec "runtime.minor_collections" "count" Lower;
        spec "runtime.major_collections" "count" Lower;
        spec "runtime.top_heap_mb" "MB" Lower;
        spec "trace.overhead_pct" "%" Lower;
      ];
    ]

(* ---------------- statistics ---------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartile as Python's statistics.quantiles(xs, n=4)
   computes them (the "exclusive" method), so compare agrees with
   whoever checks the same numbers in Python. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld < 2 then (median xs, median xs)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

let percentile_us ns p =
  if Array.length ns = 0 then 0.0
  else begin
    let s = Sias_util.Stats.Sample.create () in
    Array.iter (fun x -> Sias_util.Stats.Sample.add s (float_of_int x /. 1000.0)) ns;
    Sias_util.Stats.Sample.percentile s p
  end

let div a b = if b = 0.0 then 0.0 else a /. b
let mean xs = div (List.fold_left ( +. ) 0.0 xs) (float_of_int (List.length xs))

(* ---------------- metric values ---------------- *)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
  |> Option.get

(* Throughput and set-up time are medians over rounds, so one round
   slowed by a neighbour on the host does not move them; latency
   percentiles pool every round's samples. *)
let end_to_end_values (rounds : R.round list) =
  let ns = Array.concat (List.map (fun r -> r.R.latency_ns) rounds) in
  [
    ( "txn_per_s",
      median (List.map (fun r -> div (float_of_int r.R.sim.R.committed) r.R.run_s) rounds) );
    ("txn_us_p50", percentile_us ns 50.0);
    ("txn_us_p99", percentile_us ns 99.0);
    ("setup_s", median (List.map (fun r -> r.R.setup_s) rounds));
    ("peak_rss_mb", peak_rss_mb ());
  ]

let layer_values cost ~untraced ~traced =
  let per_round f = mean (List.map f traced) in
  let attempts r = float_of_int r.R.attempts in
  let delta k r = List.assoc k r.R.deltas in
  let gauge k r = List.assoc k r.R.gauges in
  let per_txn f = per_round (fun r -> div (f r) (attempts r)) in
  let ev f = per_txn (fun r -> float_of_int (f (Option.get r.R.events))) in
  let span (s : Probe.span) =
    List.map (fun r -> List.find (fun x -> x.Probe.name = s.Probe.name) r.R.spans) traced
  in
  let total f s = List.fold_left (fun a x -> a +. f x) 0.0 (span s) in
  let calls s = total (fun x -> float_of_int x.Probe.calls) s in
  let self_ns s = total (Probe.corrected_ns cost) s in
  let words s = total (fun x -> float_of_int x.Probe.self_words) s in
  let n_traced = float_of_int (List.length traced) in
  let kind_p50 i =
    let ns =
      Array.concat
        (List.map
           (fun r ->
             let l = ref [] in
             Array.iteri (fun j k -> if k = i then l := r.R.latency_ns.(j) :: !l) r.R.kinds;
             Array.of_list !l)
           traced)
    in
    percentile_us ns 50.0
  in
  (* each traced round against the untraced round on its seed *)
  let slowdown =
    List.filter_map
      (fun t ->
        List.find_opt (fun u -> u.R.seed = t.R.seed) untraced
        |> Option.map (fun u -> div t.R.run_s u.R.run_s))
      traced
  in
  let gc k = median (List.map (fun r -> delta k r) untraced) in
  List.concat
    [
      ("tpcc.self_s", self_ns Probe.tpcc *. 1e-9 /. n_traced)
      :: List.mapi (fun i k -> ("tpcc." ^ kind_name k ^ "_us_p50", kind_p50 i)) W.all_kinds;
      List.concat_map
        (fun (op, s) ->
          [
            ("mvcc." ^ op ^ ".calls", calls s /. n_traced);
            ("mvcc." ^ op ^ ".self_ns", div (self_ns s) (calls s));
            ("mvcc." ^ op ^ ".words", div (words s) (calls s));
          ])
        Probe.mvcc;
      [
        ("txn.hint_hits_per_txn", ev (fun e -> e.R.hint_hits));
        ("txn.hint_sets_per_txn", ev (fun e -> e.R.hint_sets));
        ( "storage.hit_ratio",
          per_round (fun r ->
              div (delta "pool_hits" r) (delta "pool_hits" r +. delta "pool_misses" r)) );
        ("storage.misses_per_txn", per_txn (delta "pool_misses"));
        ("storage.evictions_per_txn", per_txn (delta "pool_evictions"));
        ("storage.flushes_per_txn", per_txn (delta "pool_flushes"));
        ("storage.checkpoints", per_round (delta "checkpoints"));
        ( "storage.bgwriter_pages",
          per_round (fun r -> float_of_int (Option.get r.R.events).R.bgwriter_pages) );
        ("index.inserts_per_txn", per_txn (delta "index_inserts"));
        ("index.splits", per_round (delta "index_splits"));
        ("index.nodes", per_round (gauge "index_nodes"));
        ("index.height", per_round (gauge "index_height"));
        ("index.page_deltas_per_txn", ev (fun e -> e.R.index_deltas));
        ("wal.appends_per_txn", per_txn (delta "wal_appends"));
        ("wal.bytes_per_txn", per_txn (delta "wal_bytes"));
        ("wal.flushes_per_txn", per_txn (delta "wal_flushes"));
        ("wal.commit_fsyncs", per_round (gauge "commit_fsyncs"));
        ("wal.retained_mb", per_round (gauge "wal_retained_mb"));
        ("flashsim.submit.calls", calls Probe.submit /. n_traced);
        ("flashsim.submit.ns", div (self_ns Probe.submit) (calls Probe.submit));
        ("flashsim.trim.calls", calls Probe.trim /. n_traced);
        ("flashsim.trim.ns", div (self_ns Probe.trim) (calls Probe.trim));
        ("flashsim.host_writes", per_round (delta "host_writes"));
        ("flashsim.write_amplification", per_round (gauge "write_amplification"));
        ("flashsim.erases", per_round (delta "erases"));
        ("obs.events_per_txn", ev (fun e -> e.R.total));
        ("obs.checker.self_ns", div (self_ns Probe.checker) (calls Probe.checker));
        ("obs.checker_s", self_ns Probe.checker *. 1e-9 /. n_traced);
        ("obs.ssi_siread_per_txn", per_txn (delta "ssi_siread"));
        ("obs.ssi_rw_edges", per_round (delta "ssi_rw_edges"));
        ("obs.ssi_pivot_aborts", per_round (delta "ssi_pivot_aborts"));
        ( "runtime.minor_words_per_txn",
          median (List.map (fun r -> div (delta "minor_words" r) (attempts r)) untraced) );
        ("runtime.minor_collections", gc "minor_collections");
        ("runtime.major_collections", gc "major_collections");
        ( "runtime.top_heap_mb",
          float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
          /. 1048576.0 );
        ("trace.overhead_pct", 100.0 *. (median slowdown -. 1.0));
      ];
    ]

(* Every probe taken out of the layers' self times: the run time the
   per-layer numbers account for. *)
let accounted_s cost (r : R.round) =
  List.fold_left (fun a s -> a +. Probe.corrected_ns cost s) 0.0 r.R.spans *. 1e-9

(* ---------------- correctness ---------------- *)

let pins =
  String.split_on_char '\n' Expected.text
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l -> (List.hd (String.split_on_char ' ' l), l))

let problems (w : Workloads.t) ~seed (rounds : R.round list) =
  let line r = R.sim_line w.Workloads.name r.R.sim in
  let count f = List.fold_left (fun a r -> a + f r.R.sim) 0 rounds in
  let unpaired =
    List.filter
      (fun t ->
        t.R.traced
        && not (List.exists (fun u -> (not u.R.traced) && u.R.seed = t.R.seed && u.R.sim = t.R.sim) rounds))
      rounds
  in
  List.concat
    [
      List.map
        (fun t ->
          "the traced round disagrees with the untraced one on its seed, so the \
           probes perturbed the model: " ^ line t)
        unpaired;
      (match count (fun s -> s.R.failed) with
      | 0 -> []
      | n -> [ Printf.sprintf "%d transactions failed" n ]);
      (match count (fun s -> s.R.violations) with
      | 0 -> []
      | n -> [ Printf.sprintf "%d SI-checker violations" n ]);
      (if List.for_all (fun r -> r.R.consistent) rounds then []
       else [ "TPC-C consistency conditions failed after the run" ]);
      (* the first round runs on [seed] itself *)
      (if seed <> 42 then []
       else
         let got = line (List.hd rounds) in
         match List.assoc_opt w.name pins with
         | Some pin when pin = got -> []
         | Some pin ->
             [ Printf.sprintf "behaviour changed at seed 42:\n  expected %s\n  got      %s" pin got ]
         | None -> [ "no seed-42 pin for this workload in benchmark/expected.txt" ]);
    ]

(* ---------------- output ---------------- *)

let git_rev () =
  let read path =
    try Some (String.trim (In_channel.with_open_text path In_channel.input_all))
    with Sys_error _ -> None
  in
  let packed r =
    Option.bind (read ".git/packed-refs") (fun text ->
        String.split_on_char '\n' text
        |> List.find_map (fun l ->
               match String.split_on_char ' ' l with
               | [ hash; name ] when name = r -> Some hash
               | _ -> None))
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (".git/" ^ r) with
      | Some h -> h
      | None -> Option.value ~default:"unknown" (packed r))
  | Some hash -> hash

let manifest ~seed ~traced (w : Workloads.t) =
  [
    ("rev", `S (git_rev ()));
    ("ocaml", `S Sys.ocaml_version);
    ("cores", `I (Domain.recommended_domain_count ()));
    ("seed", `I seed);
    ("workload", `S w.Workloads.name);
    ("traced", `B traced);
  ]

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_value = function
  | `S s -> Printf.sprintf "%S" s
  | `I i -> string_of_int i
  | `B b -> string_of_bool b

let json_object kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) kvs) ^ "}"

let unit_of name =
  (List.find (fun s -> s.name = name) (end_to_end @ per_layer)).unit

let result_json ~correct ~attempted ~failed values =
  json_object
    [
      ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ( "metrics",
        json_object
          (List.map
             (fun (k, v) ->
               (k, json_object [ ("value", json_num v); ("unit", Printf.sprintf "%S" (unit_of k)) ]))
             values) );
    ]

let plain = function `S s -> s | `I i -> string_of_int i | `B b -> if b then "1" else "0"

(* One line per workload run, [key=value] fields: what compare reads. *)
let result_line ~manifest ~correct ~attempted ~failed values =
  List.map (fun (k, v) -> k ^ "=" ^ plain v) manifest
  @ [
      "correct=" ^ plain (`B correct);
      "attempted=" ^ string_of_int attempted;
      "failed=" ^ string_of_int failed;
    ]
  @ List.map (fun (k, v) -> k ^ "=" ^ json_num v) values
  |> String.concat " "

let print_values values ~extra =
  let t = T.create [ "metric"; "value"; "unit"; "" ] in
  List.iter
    (fun (k, v) ->
      T.add_row t [ k; Printf.sprintf "%.6g" v; unit_of k; Option.value ~default:"" (extra k) ])
    values;
  T.print t

(* Measure one workload, print its block and its result line last;
   [true] when every check passed. *)
let measure_workload ~traced ~seconds ~seed ~out cost (w : Workloads.t) =
  Printf.printf "== %s (seed %d%s)\n%!" w.Workloads.name seed (if traced then ", traced" else "");
  let rounds = R.measure ~traced ~seconds ~seed w in
  List.iteri
    (fun i r ->
      Printf.printf "  round %d (seed %d%s): setup %.3f s, run %.3f s, %d attempts\n" (i + 1)
        r.R.seed
        (if r.R.traced then ", traced" else "")
        r.R.setup_s r.R.run_s r.R.attempts)
    rounds;
  let untraced = List.filter (fun r -> not r.R.traced) rounds in
  let traced_rounds = List.filter (fun r -> r.R.traced) rounds in
  let values, extra =
    if traced then begin
      List.iter
        (fun r ->
          Printf.printf "  traced run %.4f s, accounted by self times %.4f s\n" r.R.run_s
            (accounted_s cost r))
        traced_rounds;
      (layer_values cost ~untraced ~traced:traced_rounds, fun _ -> None)
    end
    else
      let n = List.fold_left (fun a r -> a + Array.length r.R.latency_ns) 0 untraced in
      ( end_to_end_values untraced,
        fun k ->
          if String.starts_with ~prefix:"txn_us_" k then Some (Printf.sprintf "n = %d" n) else None )
  in
  print_values values ~extra;
  Printf.printf "sim: %s\n" (R.sim_line w.name (List.hd rounds).R.sim);
  let problems = problems w ~seed rounds in
  List.iter (fun p -> Printf.printf "FAIL: %s\n" p) problems;
  let correct = problems = [] in
  let attempted = List.fold_left (fun a r -> a + r.R.attempts) 0 rounds in
  let failed =
    List.fold_left (fun a r -> a + r.R.sim.R.failed + r.R.sim.R.violations) 0 rounds
  in
  let manifest = manifest ~seed ~traced w in
  Printf.printf "manifest: %s\n"
    (json_object (List.map (fun (k, v) -> (k, json_value v)) manifest));
  Option.iter
    (fun path ->
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
          output_string oc (result_line ~manifest ~correct ~attempted ~failed values ^ "\n")))
    out;
  print_endline (result_json ~correct ~attempted ~failed values);
  correct

(* One workload runs in this process. Several run one after another,
   each in a process of its own, so none inherits another's heap and
   peak RSS is the workload's own. *)
let run ~traced ~seconds ~seed ~out workloads =
  match workloads with
  | [ w ] ->
      let cost =
        if traced then Probe.calibrate () else { Probe.own = 0.0; outer = 0.0 }
      in
      if traced then
        Printf.printf "probe cost: %.1f ns own, %.1f ns in the parent\n" cost.own cost.outer;
      if measure_workload ~traced ~seconds ~seed ~out cost w then 0 else 1
  | ws ->
      let child (w : Workloads.t) =
        let args =
          [ Sys.executable_name; "run"; "--workload"; w.Workloads.name;
            "--seed"; string_of_int seed; "--seconds"; string_of_int seconds;
            "--trace"; (if traced then "1" else "0") ]
          @ (match out with Some f -> [ "--out"; f ] | None -> [])
        in
        flush stdout;
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
            Unix.stderr
        in
        match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false
      in
      if List.for_all Fun.id (List.map child ws) then 0 else 1

let list () =
  List.iter
    (fun (w : Workloads.t) -> Printf.printf "%-18s %s\n" w.Workloads.name w.why)
    Workloads.all;
  print_newline ();
  List.iter
    (fun s ->
      Printf.printf "%-30s %-6s %s%s\n" s.name s.unit
        (match s.better with Higher -> "higher" | Lower -> "lower")
        (if s.bound > 0.0 then Printf.sprintf "  bound %.0f%%" (100.0 *. s.bound) else ""))
    (end_to_end @ per_layer)

(* ---------------- compare ---------------- *)

let read_results path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         String.split_on_char ' ' l
         |> List.filter_map (fun kv ->
                match String.index_opt kv '=' with
                | Some i -> Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
                | None -> None))
  |> List.filter (fun kvs -> List.assoc_opt "traced" kvs = Some "0")

let compare old_path new_path =
  let old_runs = read_results old_path and new_runs = read_results new_path in
  let values runs w m =
    List.filter_map
      (fun kvs ->
        if List.assoc_opt "workload" kvs = Some w then
          Option.bind (List.assoc_opt m kvs) float_of_string_opt
        else None)
      runs
  in
  let t =
    T.create [ "workload"; "metric"; "old median [q1, q3]"; "new median [q1, q3]"; "delta"; "bound"; "" ]
  in
  let worse = ref 0 and compared = ref 0 in
  let show xs =
    let q1, q3 = quartiles xs in
    Printf.sprintf "%.5g [%.5g, %.5g] n=%d" (median xs) q1 q3 (List.length xs)
  in
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun s ->
          match (values old_runs w.name s.name, values new_runs w.name s.name) with
          | [], _ | _, [] -> ()
          | o, n ->
              incr compared;
              let mo = median o and mn = median n in
              let delta = div (mn -. mo) mo in
              let loss = match s.better with Lower -> delta | Higher -> -.delta in
              let verdict =
                if loss > s.bound then (incr worse; "WORSE")
                else if loss < -.s.bound then "better"
                else "within bound"
              in
              T.add_row t
                [
                  w.name; s.name ^ " (" ^ s.unit ^ ")"; show o; show n;
                  Printf.sprintf "%+.1f%%" (100.0 *. delta);
                  Printf.sprintf "%.0f%%" (100.0 *. s.bound);
                  verdict;
                ])
        end_to_end)
    Workloads.all;
  T.print t;
  if !compared = 0 then begin
    print_endline "no workload has untraced results in both files";
    1
  end
  else if !worse > 0 then begin
    Printf.printf "%d metric(s) worse beyond their bound\n" !worse;
    1
  end
  else 0
