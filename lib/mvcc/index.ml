module Btree = Sias_index.Btree
module Pbt = Sias_index.Paged_btree

module type S = sig
  type i

  val insert : i -> key:int -> payload:int -> unit
  val delete : i -> key:int -> payload:int -> bool
  val lookup : i -> key:int -> int list
  val range : i -> lo:int -> hi:int -> (int * int) list
  val mem : i -> key:int -> payload:int -> bool
  val entry_count : i -> int
  val height : i -> int
  val node_count : i -> int
  val iter : i -> (int -> int -> unit) -> unit
  val inserts : i -> int
  val splits : i -> int
  val merges : i -> int
  val needs_rebuild : bool
end

module Array_impl : S with type i = Btree.t = struct
  type i = Btree.t

  let insert = Btree.insert
  let delete = Btree.delete
  let lookup = Btree.lookup
  let range = Btree.range
  let mem = Btree.mem
  let entry_count = Btree.entry_count
  let height = Btree.height
  let node_count = Btree.node_count
  let iter = Btree.iter
  let inserts t = (Btree.stats t).Btree.inserts
  let splits t = (Btree.stats t).Btree.splits
  let merges _ = 0
  let needs_rebuild = true
end

module Paged_impl : S with type i = Pbt.t = struct
  type i = Pbt.t

  let insert = Pbt.insert
  let delete = Pbt.delete
  let lookup = Pbt.lookup
  let range = Pbt.range
  let mem = Pbt.mem
  let entry_count = Pbt.entry_count
  let height = Pbt.height
  let node_count = Pbt.node_count
  let iter = Pbt.iter
  let inserts t = (Pbt.stats t).Pbt.inserts
  let splits t = (Pbt.stats t).Pbt.splits
  let merges t = (Pbt.stats t).Pbt.merges
  let needs_rebuild = false
end

type t = Packed : (module S with type i = 'a) * 'a * int -> t

let kind_of_string = function
  | "array" -> Ok `Array
  | "paged" -> Ok `Paged
  | s -> Error (Printf.sprintf "unknown index kind %S (array|paged)" s)

let create db =
  let rel = Db.alloc_rel db in
  match db.Db.index_kind with
  | `Array -> Packed ((module Array_impl), Btree.create db.Db.pool ~rel, rel)
  | `Paged -> Packed ((module Paged_impl), Walcodec.make_index db ~rel, rel)

let recover db (Packed (_, _, old_rel)) =
  match db.Db.index_kind with
  | `Array ->
      (* the historical path verbatim: a fresh tree on a fresh relation,
         refilled from the heap by the caller *)
      let rel = Db.alloc_rel db in
      Packed ((module Array_impl), Btree.create db.Db.pool ~rel, rel)
  | `Paged ->
      Packed ((module Paged_impl), Walcodec.restore_index db ~rel:old_rel, old_rel)

let needs_rebuild (Packed ((module M), _, _)) = M.needs_rebuild
let rel (Packed (_, _, rel)) = rel
let insert (Packed ((module M), i, _)) ~key ~payload = M.insert i ~key ~payload
let delete (Packed ((module M), i, _)) ~key ~payload = M.delete i ~key ~payload
let lookup (Packed ((module M), i, _)) ~key = M.lookup i ~key
let range (Packed ((module M), i, _)) ~lo ~hi = M.range i ~lo ~hi
let mem (Packed ((module M), i, _)) ~key ~payload = M.mem i ~key ~payload
let entry_count (Packed ((module M), i, _)) = M.entry_count i
let height (Packed ((module M), i, _)) = M.height i
let node_count (Packed ((module M), i, _)) = M.node_count i
let iter (Packed ((module M), i, _)) f = M.iter i f

type summary = {
  s_rel : int;
  s_entries : int;
  s_height : int;
  s_nodes : int;
  s_inserts : int;
  s_splits : int;
  s_merges : int;
}

let summary (Packed ((module M), i, rel)) =
  {
    s_rel = rel;
    s_entries = M.entry_count i;
    s_height = M.height i;
    s_nodes = M.node_count i;
    s_inserts = M.inserts i;
    s_splits = M.splits i;
    s_merges = M.merges i;
  }
