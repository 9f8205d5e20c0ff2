(** Exclusive data-item writer locks.

    SIAS and SI both serialize writers per data item ("first-updater-wins",
    paper Algorithm 3 line 7): an updater takes an exclusive lock keyed by
    (relation, item), and a request that finds the lock held aborts at
    once. Nothing ever waits on a lock, so there is no wait-for graph and
    no deadlock. *)

type t

type outcome = Granted | Conflict of int  (** lock held by this transaction *)

val create : unit -> t

val try_acquire : t -> xid:int -> rel:int -> key:int -> outcome
(** Acquire or re-acquire (re-entrant for the same [xid]). *)

val release_all : t -> xid:int -> unit
(** Drop all locks of a transaction (commit/abort). *)

val reset : t -> unit
(** Drop every lock (crash semantics: no in-flight transaction survived
    the process). *)

val holder : t -> rel:int -> key:int -> int option
