(* Group-commit bookkeeping: membership, the commit_delay window and the
   resolved-completion queue. Pure state machine — executing the shared
   fsync against the WAL is the commit pipeline's job (Sias_wal), which
   keeps this module free of storage dependencies. *)

type member = { seq : int; xid : int; lsn : int; registered_at : float }

type group = {
  opened_at : float;
  deadline : float;
  mutable members : member list; (* newest first *)
  mutable high_lsn : int;
}

type t = {
  delay : float;
  mutable current : group option;
  mutable next_seq : int;
  mutable resolved : (int * float) list; (* (seq, completion), newest first *)
  mutable groups : int;
  mutable grouped_commits : int;
  mutable fsyncs_saved : int;
  mutable max_group : int;
}

let create ~delay =
  {
    delay;
    current = None;
    next_seq = 0;
    resolved = [];
    groups = 0;
    grouped_commits = 0;
    fsyncs_saved = 0;
    max_group = 0;
  }

let register t ~now ~xid ~lsn =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let m = { seq; xid; lsn; registered_at = now } in
  (match t.current with
  | Some g ->
      g.members <- m :: g.members;
      if lsn > g.high_lsn then g.high_lsn <- lsn
  | None ->
      t.current <-
        Some
          { opened_at = now; deadline = now +. t.delay; members = [ m ]; high_lsn = lsn });
  seq

let take_due t ~upto =
  match t.current with
  | Some g when g.deadline <= upto ->
      t.current <- None;
      Some g
  | _ -> None

let resolve t g ~completion =
  let n = List.length g.members in
  t.groups <- t.groups + 1;
  t.grouped_commits <- t.grouped_commits + n;
  t.fsyncs_saved <- t.fsyncs_saved + (n - 1);
  if n > t.max_group then t.max_group <- n;
  (* members is newest first; walk it oldest first so the resolved queue
     drains in registration order *)
  List.iter
    (fun m -> t.resolved <- (m.seq, completion) :: t.resolved)
    (List.rev g.members)

let drain_resolved t =
  let r = List.rev t.resolved in
  t.resolved <- [];
  r

let groups t = t.groups
let grouped_commits t = t.grouped_commits
let fsyncs_saved t = t.fsyncs_saved
let max_group t = t.max_group

let reset_stats t =
  t.groups <- 0;
  t.grouped_commits <- 0;
  t.fsyncs_saved <- 0;
  t.max_group <- 0
