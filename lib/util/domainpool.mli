(** Parallel-execution primitives for OCaml 5 domains.

    Shared-nothing model: partition work per domain; the only
    cross-domain traffic is a start {!Barrier} and the results {!run}
    returns on join. See DESIGN.md "Multicore execution model". *)

module Barrier : sig
  (** Reusable phase barrier for [parties] participants. *)

  type t

  val create : int -> t
  val wait : t -> unit
end

val run : domains:int -> (int -> 'a) -> 'a array
(** [run ~domains f] evaluates [f i] for each domain index
    [0 <= i < domains] in parallel and returns results in index order.
    [domains = 1] runs inline on the caller (no spawn) so the
    deterministic single-domain path is untouched. If a worker raises,
    the first exception is re-raised after every domain has joined. *)
