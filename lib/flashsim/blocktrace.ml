type op = Read | Write

type record = { time : float; op : op; sector : int; bytes : int }

type t = {
  mutable keep_records : bool;
  mutable max_records : int;
  mutable recs : record list; (* reversed *)
  mutable n_recs : int;
  mutable dropped : int; (* records not retained once max_records was hit *)
  mutable read_bytes : int;
  mutable write_bytes : int;
  mutable read_count : int;
  mutable write_count : int;
}

let create ?(keep_records = true) ?(max_records = 500_000) () =
  {
    keep_records;
    max_records;
    recs = [];
    n_recs = 0;
    dropped = 0;
    read_bytes = 0;
    write_bytes = 0;
    read_count = 0;
    write_count = 0;
  }

let add t ~time ~op ~sector ~bytes =
  (match op with
  | Read ->
      t.read_bytes <- t.read_bytes + bytes;
      t.read_count <- t.read_count + 1
  | Write ->
      t.write_bytes <- t.write_bytes + bytes;
      t.write_count <- t.write_count + 1);
  if t.keep_records then begin
    if t.n_recs < t.max_records then begin
      t.recs <- { time; op; sector; bytes } :: t.recs;
      t.n_recs <- t.n_recs + 1
    end
    else t.dropped <- t.dropped + 1
  end

let read_bytes t = t.read_bytes
let write_bytes t = t.write_bytes
let read_count t = t.read_count
let write_count t = t.write_count
let write_mb t = float_of_int t.write_bytes /. (1024.0 *. 1024.0)
let read_mb t = float_of_int t.read_bytes /. (1024.0 *. 1024.0)
let records t = List.rev t.recs
let dropped_records t = t.dropped

let set_max_records t n =
  t.max_records <- Stdlib.max 0 n;
  (* retention restarts under the new cap; no partial eviction *)
  if t.n_recs > t.max_records then begin
    t.dropped <- t.dropped + t.n_recs;
    t.recs <- [];
    t.n_recs <- 0
  end

let set_keep_records t keep =
  t.keep_records <- keep;
  if not keep then begin
    t.recs <- [];
    t.n_recs <- 0;
    t.dropped <- 0
  end

let reset t =
  t.recs <- [];
  t.n_recs <- 0;
  t.dropped <- 0;
  t.read_bytes <- 0;
  t.write_bytes <- 0;
  t.read_count <- 0;
  t.write_count <- 0

(* Plot size in characters. *)
let width = 78
let height = 22

let render_scatter t =
  let recs = records t in
  match recs with
  | [] -> "(empty trace)"
  | first :: _ ->
      let t0 = first.time in
      let t1 = List.fold_left (fun acc r -> Stdlib.max acc r.time) t0 recs in
      let smax = List.fold_left (fun acc r -> Stdlib.max acc r.sector) 0 recs in
      let tspan = Stdlib.max 1e-9 (t1 -. t0) in
      let sspan = Stdlib.max 1 smax in
      let grid = Array.make_matrix height width ' ' in
      let mark r =
        let x = int_of_float (float_of_int (width - 1) *. (r.time -. t0) /. tspan) in
        let y = height - 1 - (r.sector * (height - 1) / sspan) in
        let x = Stdlib.max 0 (Stdlib.min (width - 1) x) in
        let y = Stdlib.max 0 (Stdlib.min (height - 1) y) in
        let c = match r.op with Read -> 'r' | Write -> 'W' in
        grid.(y).(x) <-
          (match (grid.(y).(x), c) with
          | ' ', c -> c
          | 'r', 'r' -> 'r'
          | 'W', 'W' -> 'W'
          | _, _ -> '#')
      in
      List.iter mark recs;
      let buf = Buffer.create (height * (width + 3)) in
      Buffer.add_string buf
        (Printf.sprintf "sector (max %d) ^   time %.1fs .. %.1fs ->\n" smax t0 t1);
      Array.iter
        (fun row ->
          Buffer.add_char buf '|';
          Array.iter (Buffer.add_char buf) row;
          Buffer.add_char buf '\n')
        grid;
      Buffer.add_string buf ("+" ^ String.make width '-');
      if t.dropped > 0 then
        Buffer.add_string buf
          (Printf.sprintf
             "\n(truncated: %d of %d requests not plotted — retention cap %d)"
             t.dropped
             (t.read_count + t.write_count)
             t.max_records);
      Buffer.contents buf

let to_csv t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "time,op,sector,bytes\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%.6f,%s,%d,%d\n" r.time
           (match r.op with Read -> "R" | Write -> "W")
           r.sector r.bytes))
    (records t);
  if t.dropped > 0 then
    Buffer.add_string b
      (Printf.sprintf "# truncated: %d records dropped (retention cap %d)\n"
         t.dropped t.max_records);
  Buffer.contents b

(* Sequentiality: fraction of requests of the given kind whose sector
   immediately follows the previous same-kind request (within [slack]
   sectors) — the "append lane" signature of Figures 3/4. *)
let slack = 64

let sequentiality t op =
  let recs = List.filter (fun r -> r.op = op) (records t) in
  match recs with
  | [] | [ _ ] -> 0.0
  | first :: rest ->
      let seq = ref 0 and total = ref 0 in
      let prev_end = ref (first.sector + ((first.bytes + 511) / 512)) in
      List.iter
        (fun r ->
          incr total;
          if r.sector >= !prev_end - slack && r.sector <= !prev_end + slack then incr seq;
          prev_end := r.sector + ((r.bytes + 511) / 512))
        rest;
      float_of_int !seq /. float_of_int !total
