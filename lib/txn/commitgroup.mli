(** Group-commit bookkeeping (PostgreSQL [commit_delay]).

    A committing transaction {!register}s in the open group (opening one
    if none is); the group stays open for a [delay] window measured from
    the first member's registration. Once simulated time passes the
    deadline, the executor (the commit pipeline in [Sias_wal]) detaches
    the group with {!take_due}, performs one fsync covering every
    member's commit record, and reports the shared completion time
    through {!resolve}; the workload driver then picks up per-member
    completions from {!drain_resolved} and releases the waiting
    terminals.

    This module is pure bookkeeping — no clock, no WAL, no I/O — so the
    window/membership logic is testable in isolation and [Sias_txn]
    gains no storage dependency. *)

type member = { seq : int; xid : int; lsn : int; registered_at : float }

type group = {
  opened_at : float;
  deadline : float;  (** [opened_at + delay] *)
  mutable members : member list;  (** newest first *)
  mutable high_lsn : int;
      (** highest commit-record LSN in the group: one flush covering
          this LSN makes every member durable (WAL flushes are prefix
          flushes) *)
}

type t

val create : delay:float -> t

val register : t -> now:float -> xid:int -> lsn:int -> int
(** Join the open group (or open one with deadline [now + delay]);
    returns a ticket the driver uses to match the completion from
    {!drain_resolved}. The caller must close an overdue group first —
    {!register} never extends a deadline. *)

val take_due : t -> upto:float -> group option
(** Detach the open group if its deadline is at or before [upto]
    ([upto = infinity] force-closes); the caller fsyncs and then calls
    {!resolve}. *)

val resolve : t -> group -> completion:float -> unit
(** Record the group's shared fsync completion: every member's ticket is
    queued for {!drain_resolved} with that completion time, and the
    group/size/fsyncs-saved statistics are updated. *)

val drain_resolved : t -> (int * float) list
(** Completed (ticket, completion) pairs in registration order; clears
    the queue. *)

val groups : t -> int
val grouped_commits : t -> int

val fsyncs_saved : t -> int
(** Sum over resolved groups of (size - 1): commits that did not pay
    their own fsync. *)

val max_group : t -> int
val reset_stats : t -> unit
