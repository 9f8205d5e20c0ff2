(** Background writer and checkpointer policies.

    The SIAS flush thresholds of the paper map directly onto these
    policies (Section 5.2):

    - threshold {b t1} — the PostgreSQL background-writer default: dirty
      pages are trickled out every [bgwriter_interval] regardless of how
      full they are, so sparsely filled append pages get persisted (and
      re-persisted) too early;
    - threshold {b t2} — piggy-backed on the checkpoint: pages stay in the
      buffer until the checkpoint interval elapses, so append pages are
      flushed once, full.

    The driver calls {!tick} as simulated time advances; this module
    decides when a bgwriter round or a checkpoint is due. *)

type policy =
  | T1_bgwriter of { interval : float; max_pages : int }
      (** flush up to [max_pages] LRU dirty pages every [interval] sim-seconds *)
  | T2_checkpoint_only

type t

val create :
  Bufpool.t ->
  clock:Sias_util.Simclock.t ->
  policy:policy ->
  ?checkpoint_interval:float ->
  ?before_checkpoint:(unit -> unit) ->
  ?on_checkpoint:(unit -> unit) ->
  ?bus:Sias_obs.Bus.t ->
  unit ->
  t
(** A checkpoint flushing all dirty pages runs every [checkpoint_interval]
    simulated seconds (default 30.) under either policy.
    [before_checkpoint] runs first (e.g. the commit pipeline flushing
    buffered WAL ahead of the heap writes); [on_checkpoint] runs after
    each checkpoint flush (e.g. to reset the full-page-write tracking so
    the next touch of a page logs a fresh image). *)

val tick : t -> unit
(** Run any bgwriter round / checkpoint that has become due. *)

val checkpoint_now : t -> unit

val checkpoints : t -> int
val bgwriter_rounds : t -> int
