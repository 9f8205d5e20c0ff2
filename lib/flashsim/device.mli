(** Uniform block-device front end with a multi-server queue.

    A device couples a service-time model (SSD, HDD or RAID-0 over other
    devices) with [parallelism] request servers and a {!Blocktrace}. The
    storage layer above talks only to this interface.

    [submit] returns the absolute completion time of the request given the
    submission time, which is how simulated I/O latency flows into
    transaction response times. *)

type t

exception
  No_space of { device : string; sector : int; sectors : int; capacity_sectors : int }
(** A write would land past the device's configured capacity. Raised
    before the request is traced or serviced — the device state is
    unchanged, so the storage layer can reclaim space (checkpoint + WAL
    truncation, trim) or degrade to read-only. *)

val name : t -> string
val trace : t -> Blocktrace.t

val set_capacity : t -> sectors:int -> unit
(** Bound the addressable space: subsequent writes at or past [sectors]
    raise {!No_space}. Devices are unbounded by default. *)

val capacity_sectors : t -> int option

val attach_bus : t -> Sias_obs.Bus.t -> unit
(** Publish every subsequent request on [bus] as
    [Sias_obs.Bus.Device_io] (with its simulated latency) and trims as
    [Device_trim]; SSD-backed devices additionally report GC work
    detected inside a request as [Ftl_gc]. Attach only to the device the
    measurement reads (for a RAID, the top-level device) — member/inner
    devices would double-count the logical request. *)

val observed : t -> bool
(** An attached bus exists and has subscribers. *)

val submit : t -> now:float -> Blocktrace.op -> sector:int -> bytes:int -> float
(** Enqueue a request at simulated time [now]; returns its completion
    time. The request is recorded in the device trace. *)

val info : t -> (string * float) list
(** Device-model counters (erase totals, write amplification, ...). *)

val make :
  ?trim_impl:(sector:int -> bytes:int -> unit) ->
  name:string ->
  submit_impl:(now:float -> Blocktrace.op -> sector:int -> bytes:int -> float) ->
  info_impl:(unit -> (string * float) list) ->
  unit ->
  t
(** Wrap a custom service model (used by {!Noftl}); [submit_impl] returns
    the absolute completion time and must do its own queueing. *)

val trim : t -> sector:int -> bytes:int -> unit
(** Discard a logical range: SSDs invalidate the mapped flash pages (so
    device GC never relocates dead data — the endurance benefit the
    paper's Section 6 attributes to DBMS-driven reclamation); other
    devices ignore it. *)

val raid0 : ?name:string -> ?chunk_sectors:int -> t list -> t
(** Stripe over member devices; a request spanning several chunks is split
    and completes when the slowest member finishes. Member traces record
    the physical requests, the RAID trace records the logical one. *)

val ssd_x25e : ?name:string -> ?blocks:int -> unit -> t
(** Convenience: a fresh X25-E-class SSD device. *)

val hdd_7200 : ?name:string -> unit -> t
(** Convenience: a fresh 7200 rpm HDD device. *)

val ssd_raid : ?blocks_per_ssd:int -> int -> t
(** [ssd_raid n] is an n-member RAID-0 of X25-E-class SSDs, as in the
    paper's 2-SSD and 6-SSD configurations. *)
