module Acc = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable total : float;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity; total = 0.0 }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    t.total <- t.total +. x

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let min t = t.min
  let max t = t.max
  let total t = t.total
end

module Sample = struct
  type t = {
    mutable data : float array;
    mutable len : int;
    mutable sorted : bool;
  }

  let create () = { data = Array.make 64 0.0; len = 0; sorted = true }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1;
    t.sorted <- false

  let count t = t.len

  let ensure_sorted t =
    if not t.sorted then begin
      let live = Array.sub t.data 0 t.len in
      (* Float.compare, not polymorphic compare: monomorphic (no boxing
         through the generic compare runtime path) and total on floats —
         NaNs sort below every number instead of poisoning comparisons,
         so percentiles stay well-defined on samples containing NaN. *)
      Array.sort Float.compare live;
      Array.blit live 0 t.data 0 t.len;
      t.sorted <- true
    end

  let percentile t p =
    if t.len = 0 then invalid_arg "Stats.Sample.percentile: empty sample";
    if p < 0.0 || p > 100.0 then invalid_arg "Stats.Sample.percentile: p out of range";
    ensure_sorted t;
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.len)) in
    let idx = Stdlib.max 0 (Stdlib.min (t.len - 1) (rank - 1)) in
    t.data.(idx)

  let mean t =
    if t.len = 0 then 0.0
    else begin
      let s = ref 0.0 in
      for i = 0 to t.len - 1 do
        s := !s +. t.data.(i)
      done;
      !s /. float_of_int t.len
    end

  let max t =
    let m = ref neg_infinity in
    for i = 0 to t.len - 1 do
      if t.data.(i) > !m then m := t.data.(i)
    done;
    !m
end

module Counter = struct
  type t = { name : string; mutable n : int }

  let create name = { name; n = 0 }
  let incr t = t.n <- t.n + 1
  let add t k = t.n <- t.n + k
  let value t = t.n
  let name t = t.name
  let reset t = t.n <- 0
  let to_info ts = List.map (fun t -> (t.name, float_of_int t.n)) ts
end

module Histogram = struct
  type t = { width : float; counts : int array; mutable total : int }

  let create ~bucket_width ~buckets =
    if bucket_width <= 0.0 || buckets <= 0 then invalid_arg "Stats.Histogram.create";
    { width = bucket_width; counts = Array.make buckets 0; total = 0 }

  let add t x =
    let i = int_of_float (x /. t.width) in
    let i = Stdlib.max 0 (Stdlib.min (Array.length t.counts - 1) i) in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1

  let counts t = Array.copy t.counts
  let total t = t.total
  let bucket_width t = t.width

  (* Nearest-rank percentile estimated from the buckets: the upper edge
     of the bucket containing the rank-th observation. *)
  let percentile t p =
    if t.total = 0 then invalid_arg "Stats.Histogram.percentile: empty histogram";
    if p < 0.0 || p > 100.0 then invalid_arg "Stats.Histogram.percentile: p out of range";
    let rank = Stdlib.max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int t.total))) in
    let n = Array.length t.counts in
    let rec go i cum =
      if i >= n then float_of_int n *. t.width
      else
        let cum = cum + t.counts.(i) in
        if cum >= rank then float_of_int (i + 1) *. t.width else go (i + 1) cum
    in
    go 0 0
end
