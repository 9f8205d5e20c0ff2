type site = { point : string; hit : int }
type schedule = { workload : site option; recovery : site list }
type failure = { schedule : schedule; error : string }

type report = {
  points : (string * int) list;
  recovery_points : (string * int) list;
  schedules_run : int;
  failures : failure list;
  truncated : bool;
}

type session = {
  run : unit -> unit;
  crash : unit -> unit;
  recover : unit -> unit;
  verify : unit -> unit;
}

type config = {
  hits_per_point : int;
  depth2 : bool;
  max_schedules : int option;
}

let default_config = { hits_per_point = 3; depth2 = true; max_schedules = None }

let site_to_string s =
  if s.hit = 1 then s.point else Printf.sprintf "%s#%d" s.point s.hit

let schedule_to_string sch =
  let w =
    match sch.workload with None -> "-" | Some s -> site_to_string s
  in
  match sch.recovery with
  | [] -> w
  | rs ->
      w ^ " -> "
      ^ String.concat " -> "
          (List.map (fun s -> "recovery:" ^ site_to_string s) rs)

(* Sample up to [n] hit indices out of 1..count, always including the
   first and last reach so both "earliest possible tear" and "crash at
   the very end of the window" get exercised. *)
let sample_hits n count =
  if count <= n then List.init count (fun i -> i + 1)
  else if n = 1 then [ 1 ]
  else
    List.init n (fun i -> 1 + i * (count - 1) / (n - 1))
    |> List.sort_uniq compare

let sites_of_census cfg census =
  List.concat_map
    (fun (point, count) ->
      List.map (fun hit -> { point; hit }) (sample_hits cfg.hits_per_point count))
    census

let error_to_string exn = Printexc.to_string exn

let explore cfg fresh =
  let failures = ref [] in
  let schedules_run = ref 0 in
  let truncated = ref false in
  let budget_left () =
    match cfg.max_schedules with
    | None -> true
    | Some m ->
        if !schedules_run < m then true
        else begin
          truncated := true;
          false
        end
  in
  (* Census pass: learn reachable points in the workload and in a clean
     recovery, and check the harness itself verifies on the happy path. *)
  let census_points, census_recovery =
    let s = fresh () in
    Crashpoint.census ();
    let cleanup () = Crashpoint.disarm () in
    (try
       s.run ();
       let pts = Crashpoint.censused () in
       s.crash ();
       Crashpoint.census ();
       s.recover ();
       let rec_pts = Crashpoint.censused () in
       cleanup ();
       s.verify ();
       (pts, rec_pts)
     with e ->
       cleanup ();
       failwith
         (Printf.sprintf "Explorer: census pass failed: %s" (error_to_string e)))
  in
  let workload_sites = sites_of_census cfg census_points in
  (* Depth 1: crash at each workload site, recover once (in census mode,
     so this schedule's own recovery points seed depth 2), verify. *)
  let depth2_seeds = ref [] in
  List.iter
    (fun site ->
      if budget_left () then begin
        incr schedules_run;
        let sch = { workload = Some site; recovery = [] } in
        let s = fresh () in
        try
          (try
             Crashpoint.arm ~point:site.point ~hit:site.hit ();
             s.run ();
             (* Deterministic reruns reach every censused site, so an
                armed point that never fires means the harness and the
                census disagree — surface it. *)
             Crashpoint.disarm ();
             failwith "armed crash point never fired"
           with Crashpoint.Crash _ -> ());
          s.crash ();
          Crashpoint.census ();
          s.recover ();
          let rec_pts = Crashpoint.censused () in
          Crashpoint.disarm ();
          s.verify ();
          if cfg.depth2 then depth2_seeds := (site, rec_pts) :: !depth2_seeds
        with e ->
          Crashpoint.disarm ();
          failures := { schedule = sch; error = error_to_string e } :: !failures
      end)
    workload_sites;
  (* Depth 2: for each surviving depth-1 schedule, crash once more at
     each point reached during its recovery, then recover to fixpoint. *)
  if cfg.depth2 then
    List.iter
      (fun (wsite, rec_pts) ->
        List.iter
          (fun rsite ->
            if budget_left () then begin
              incr schedules_run;
              let sch = { workload = Some wsite; recovery = [ rsite ] } in
              let s = fresh () in
              try
                (try
                   Crashpoint.arm ~point:wsite.point ~hit:wsite.hit ();
                   s.run ();
                   Crashpoint.disarm ();
                   failwith "armed workload crash point never fired"
                 with Crashpoint.Crash _ -> ());
                s.crash ();
                (try
                   Crashpoint.arm ~point:rsite.point ~hit:rsite.hit ();
                   s.recover ();
                   (* The nested site may be unreachable in this run if
                      the first recovery already repaired state; that is
                      a legal (boring) schedule, not a failure. *)
                   Crashpoint.disarm ()
                 with Crashpoint.Crash _ -> s.crash ());
                (* Recovery must converge: a disarmed re-run from the
                   crashed-recovery state is the fixpoint pass. *)
                s.recover ();
                s.verify ()
              with e ->
                Crashpoint.disarm ();
                failures :=
                  { schedule = sch; error = error_to_string e } :: !failures
            end)
          (sites_of_census cfg rec_pts))
      (List.rev !depth2_seeds);
  Crashpoint.disarm ();
  {
    points = census_points;
    recovery_points = census_recovery;
    schedules_run = !schedules_run;
    failures = List.rev !failures;
    truncated = !truncated;
  }
