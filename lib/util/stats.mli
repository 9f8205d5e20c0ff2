(** Online statistics: mean/variance accumulators, percentile samples and
    fixed-bucket histograms used by the benchmark harness. *)

(** Welford accumulator for mean and variance. *)
module Acc : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0. when empty. *)

  val variance : t -> float
  (** Sample variance; 0. with fewer than two observations. *)

  val min : t -> float
  (** [infinity] when empty. *)

  val max : t -> float
  (** [neg_infinity] when empty. *)

  val total : t -> float
end

(** Growable sample buffer with exact percentiles. *)
module Sample : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val percentile : t -> float -> float
  (** [percentile s p] with [p] in [0,100]; nearest-rank on the sorted
      sample. Raises [Invalid_argument] when empty or [p] out of range. *)

  val mean : t -> float
  val max : t -> float
end

(** Named monotonic event counter; the reliability layer (fault injection,
    retries, page repairs) reports through these so every layer exposes
    its counts uniformly. *)
module Counter : sig
  type t

  val create : string -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val name : t -> string
  val reset : t -> unit

  val to_info : t list -> (string * float) list
  (** As [(name, value)] pairs, for merging into device [info] lists. *)
end

(** Fixed-width bucket histogram over [0, width * buckets); values beyond
    the last bucket are clamped into it. *)
module Histogram : sig
  type t

  val create : bucket_width:float -> buckets:int -> t
  val add : t -> float -> unit
  val counts : t -> int array
  val total : t -> int
  val bucket_width : t -> float

  val percentile : t -> float -> float
  (** Nearest-rank percentile estimated from the buckets (the upper edge
      of the bucket holding the rank-th observation), so the estimate is
      an upper bound within one bucket width. Raises [Invalid_argument]
      when the histogram is empty or [p] is outside [0,100]. *)
end
