(* Node image layout (fixed [image_size] bytes, one item per page):
     [0]      tag: 0 = leaf, 1 = internal
     [1..2]   n (u16): pairs in a leaf / separators in an internal node
     [3..10]  next-leaf block id + 1 (int64; 0 = none) — leaves only
     leaf:     n * (key int64, payload int64)
     internal: n * (sep_key int64, sep_payload int64), then (n+1) child
               block ids (int64)
   Separators are full (key, payload) pairs so that duplicate keys order
   deterministically across node boundaries. *)

let max_entries = 250
let image_size = 11 + (max_entries * 16) + ((max_entries + 1) * 8)

type node = {
  leaf : bool;
  mutable n : int;
  keys : int array; (* size max_entries *)
  payloads : int array;
  children : int array; (* size max_entries + 1; internal only *)
  mutable next_leaf : int; (* block id, -1 = none *)
}

type t = {
  pool : Sias_storage.Bufpool.t;
  rel : int;
  (* every node of the tree: [write_node] caches each node as it writes
     it and nothing evicts, so no read decodes a page image. Page I/O is
     still charged through the buffer pool. Never shared across instances
     (recovery builds a fresh tree). *)
  cache : (int, node) Hashtbl.t;
  mutable root : int;
  mutable nblocks : int;
  mutable entries : int;
  mutable height : int;
  mutable inserts : int;
  mutable deletes : int;
  mutable splits : int;
  mutable lookups : int;
}


let blank_node ~leaf =
  {
    leaf;
    n = 0;
    keys = Array.make max_entries 0;
    payloads = Array.make max_entries 0;
    children = Array.make (max_entries + 1) (-1);
    next_leaf = -1;
  }

(* The node image is written where it lies in the frame, at the slot-0
   item's offset: every byte of the [image_size] span, so a node that
   shrank leaves a zeroed tail. Building a fresh image per write would
   allocate 753 words, past the minor heap's limit, on every insert,
   delete and split. *)
let encode_into b off node =
  Bytes.set_uint8 b off (if node.leaf then 0 else 1);
  Bytes.set_uint16_le b (off + 1) node.n;
  Bytes.set_int64_le b (off + 3) (Int64.of_int (node.next_leaf + 1));
  let pos = ref (off + 11) in
  for i = 0 to node.n - 1 do
    Bytes.set_int64_le b !pos (Int64.of_int node.keys.(i));
    Bytes.set_int64_le b (!pos + 8) (Int64.of_int node.payloads.(i));
    pos := !pos + 16
  done;
  if not node.leaf then
    for i = 0 to node.n do
      Bytes.set_int64_le b !pos (Int64.of_int node.children.(i));
      pos := !pos + 8
    done;
  Bytes.fill b !pos (off + image_size - !pos) '\000'

(* Allocate-and-fill encoding: the reference the in-frame write must
   match byte for byte (tests only, through [reference_image]). *)
let encode node =
  let b = Bytes.make image_size '\000' in
  Bytes.set_uint8 b 0 (if node.leaf then 0 else 1);
  Bytes.set_uint16_le b 1 node.n;
  Bytes.set_int64_le b 3 (Int64.of_int (node.next_leaf + 1));
  let pos = ref 11 in
  for i = 0 to node.n - 1 do
    Bytes.set_int64_le b !pos (Int64.of_int node.keys.(i));
    Bytes.set_int64_le b (!pos + 8) (Int64.of_int node.payloads.(i));
    pos := !pos + 16
  done;
  if not node.leaf then
    for i = 0 to node.n do
      Bytes.set_int64_le b !pos (Int64.of_int node.children.(i));
      pos := !pos + 8
    done;
  b

let image_offset page =
  let off = Sias_storage.Page.item_offset page 0 in
  if off < 0 then failwith "Btree: missing node image";
  off

(* The pin charges the page access (the pool's hit/miss sequence is
   simulated behaviour); the node itself comes from the cache, which
   holds every node ever written. *)
let read_node t block =
  Sias_storage.Bufpool.with_page t.pool ~rel:t.rel ~block (fun _ ->
      Hashtbl.find t.cache block)

(* A fresh node page takes its slot-0 item from this shared zero image
   ([Page.insert] copies it), then is written in place like any other. *)
let zero_image = Bytes.make image_size '\000'

let write_node t block node =
  Hashtbl.replace t.cache block node;
  Sias_storage.Bufpool.with_page t.pool ~rel:t.rel ~block (fun page ->
      if Sias_storage.Page.slot_count page = 0
         && Sias_storage.Page.insert page zero_image <> Some 0
      then failwith "Btree: node image write failed";
      encode_into (Sias_storage.Page.buffer page) (image_offset page) node;
      Sias_storage.Bufpool.mark_dirty t.pool ~rel:t.rel ~block)

let alloc_block t =
  let b = t.nblocks in
  t.nblocks <- b + 1;
  b

let create pool ~rel =
  let t =
    {
      pool;
      rel;
      cache = Hashtbl.create 256;
      root = 0;
      nblocks = 0;
      entries = 0;
      height = 1;
      inserts = 0;
      deletes = 0;
      splits = 0;
      lookups = 0;
    }
  in
  let root = alloc_block t in
  write_node t root (blank_node ~leaf:true);
  t.root <- root;
  t

(* Lexicographic pair comparison. *)
let cmp_pair k1 p1 k2 p2 =
  match Int.compare k1 k2 with 0 -> Int.compare p1 p2 | c -> c

(* First index whose (key,payload) is >= the probe; node.n if none. *)
let lower_bound node ~key ~payload =
  let lo = ref 0 and hi = ref node.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp_pair node.keys.(mid) node.payloads.(mid) key payload < 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

(* Child to descend into: number of separators <= probe. *)
let child_index node ~key ~payload =
  let lo = ref 0 and hi = ref node.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp_pair node.keys.(mid) node.payloads.(mid) key payload <= 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

let shift_right a from upto =
  for i = upto downto from do
    a.(i + 1) <- a.(i)
  done

let insert_at node i ~key ~payload =
  shift_right node.keys i (node.n - 1);
  shift_right node.payloads i (node.n - 1);
  node.keys.(i) <- key;
  node.payloads.(i) <- payload;
  node.n <- node.n + 1

(* Split a full node in two; returns (separator pair, right block).
   For leaves the separator is the right node's first pair (it stays in
   the leaf); for internals the median moves up. *)
let split t block node =
  t.splits <- t.splits + 1;
  let right_block = alloc_block t in
  let right = blank_node ~leaf:node.leaf in
  if node.leaf then begin
    let mid = node.n / 2 in
    let moved = node.n - mid in
    Array.blit node.keys mid right.keys 0 moved;
    Array.blit node.payloads mid right.payloads 0 moved;
    right.n <- moved;
    right.next_leaf <- node.next_leaf;
    node.next_leaf <- right_block;
    node.n <- mid;
    write_node t block node;
    write_node t right_block right;
    ((right.keys.(0), right.payloads.(0)), right_block)
  end
  else begin
    let mid = node.n / 2 in
    let sep = (node.keys.(mid), node.payloads.(mid)) in
    let moved = node.n - mid - 1 in
    Array.blit node.keys (mid + 1) right.keys 0 moved;
    Array.blit node.payloads (mid + 1) right.payloads 0 moved;
    Array.blit node.children (mid + 1) right.children 0 (moved + 1);
    right.n <- moved;
    node.n <- mid;
    write_node t block node;
    write_node t right_block right;
    (sep, right_block)
  end

(* Returns [Some (sep, right)] when [block] split and the parent must
   absorb the separator. *)
let rec insert_rec t block ~key ~payload =
  let node = read_node t block in
  if node.leaf then begin
    let i = lower_bound node ~key ~payload in
    if i < node.n && cmp_pair node.keys.(i) node.payloads.(i) key payload = 0 then None
      (* duplicate pair: ignore *)
    else begin
      insert_at node i ~key ~payload;
      t.entries <- t.entries + 1;
      t.inserts <- t.inserts + 1;
      if node.n < max_entries then begin
        write_node t block node;
        None
      end
      else Some (split t block node)
    end
  end
  else begin
    let ci = child_index node ~key ~payload in
    match insert_rec t node.children.(ci) ~key ~payload with
    | None -> None
    | Some ((sk, sp), right_block) ->
        let i = child_index node ~key:sk ~payload:sp in
        shift_right node.children i node.n;
        insert_at node i ~key:sk ~payload:sp;
        node.children.(i + 1) <- right_block;
        if node.n < max_entries then begin
          write_node t block node;
          None
        end
        else Some (split t block node)
  end

let insert t ~key ~payload =
  match insert_rec t t.root ~key ~payload with
  | None -> ()
  | Some ((sk, sp), right_block) ->
      let new_root = blank_node ~leaf:false in
      new_root.n <- 1;
      new_root.keys.(0) <- sk;
      new_root.payloads.(0) <- sp;
      new_root.children.(0) <- t.root;
      new_root.children.(1) <- right_block;
      let rb = alloc_block t in
      write_node t rb new_root;
      t.root <- rb;
      t.height <- t.height + 1

let rec find_leaf t block ~key ~payload =
  let node = read_node t block in
  if node.leaf then (block, node)
  else find_leaf t node.children.(child_index node ~key ~payload) ~key ~payload

let lookup t ~key =
  t.lookups <- t.lookups + 1;
  let _, leaf = find_leaf t t.root ~key ~payload:min_int in
  let acc = ref [] in
  let continue = ref true in
  let node = ref leaf in
  let i = ref (lower_bound leaf ~key ~payload:min_int) in
  while !continue do
    if !i >= !node.n then
      if !node.next_leaf >= 0 then begin
        node := read_node t !node.next_leaf;
        i := 0
      end
      else continue := false
    else if !node.keys.(!i) = key then begin
      acc := !node.payloads.(!i) :: !acc;
      incr i
    end
    else if !node.keys.(!i) > key then continue := false
    else incr i
  done;
  List.rev !acc

let range t ~lo ~hi =
  t.lookups <- t.lookups + 1;
  if hi < lo then []
  else begin
    let _, leaf = find_leaf t t.root ~key:lo ~payload:min_int in
    let acc = ref [] in
    let continue = ref true in
    let node = ref leaf in
    let i = ref (lower_bound leaf ~key:lo ~payload:min_int) in
    while !continue do
      if !i >= !node.n then
        if !node.next_leaf >= 0 then begin
          node := read_node t !node.next_leaf;
          i := 0
        end
        else continue := false
      else if !node.keys.(!i) > hi then continue := false
      else begin
        acc := (!node.keys.(!i), !node.payloads.(!i)) :: !acc;
        incr i
      end
    done;
    List.rev !acc
  end

let mem t ~key ~payload =
  let _, leaf = find_leaf t t.root ~key ~payload in
  let i = lower_bound leaf ~key ~payload in
  i < leaf.n && cmp_pair leaf.keys.(i) leaf.payloads.(i) key payload = 0

let delete t ~key ~payload =
  let block, leaf = find_leaf t t.root ~key ~payload in
  let i = lower_bound leaf ~key ~payload in
  if i < leaf.n && cmp_pair leaf.keys.(i) leaf.payloads.(i) key payload = 0 then begin
    for j = i to leaf.n - 2 do
      leaf.keys.(j) <- leaf.keys.(j + 1);
      leaf.payloads.(j) <- leaf.payloads.(j + 1)
    done;
    leaf.n <- leaf.n - 1;
    write_node t block leaf;
    t.entries <- t.entries - 1;
    t.deletes <- t.deletes + 1;
    true
  end
  else false

let iter t f =
  let rec leftmost block =
    let node = read_node t block in
    if node.leaf then (block, node) else leftmost node.children.(0)
  in
  let _, leaf = leftmost t.root in
  let node = ref leaf in
  let continue = ref true in
  while !continue do
    for i = 0 to !node.n - 1 do
      f !node.keys.(i) !node.payloads.(i)
    done;
    if !node.next_leaf >= 0 then node := read_node t !node.next_leaf else continue := false
  done

let entry_count t = t.entries
let height t = t.height
let node_count t = t.nblocks

type stats = { inserts : int; deletes : int; splits : int; lookups : int }

let stats (t : t) =
  { inserts = t.inserts; deletes = t.deletes; splits = t.splits; lookups = t.lookups }

let reference_image t ~block = encode (Hashtbl.find t.cache block)
