type event = ..

type io_op = Io_read | Io_write

type event +=
  | Txn_begin of { xid : int }
  | Txn_commit of { xid : int }
  | Txn_abort of { xid : int }
  | Txn_retry of { attempt : int }
  | Txn_shed
  | Page_hit of { rel : int; block : int }
  | Page_miss of { rel : int; block : int }
  | Page_evict of { rel : int; block : int; dirty : bool }
  | Page_flush of { rel : int; block : int; sync : bool }
  | Page_repair of { rel : int; block : int }
  | Page_trim of { rel : int; block : int }
  | Wal_append of { kind : string; bytes : int }
  | Wal_flush of { sync : bool; bytes : int }
  | Commit_group of { size : int }
  | Device_io of {
      device : string;
      op : io_op;
      sector : int;
      bytes : int;
      latency_s : float;
    }
  | Device_trim of { device : string; sector : int; bytes : int }
  | Fault_hit of { kind : string; sector : int }
  | Hint_set of { rel : int; committed : bool }
  | Hint_hit of { rel : int }
  | Checkpoint of { pages : int }
  | Bgwriter_pass of { pages : int }
  | Ftl_gc of { device : string; moved_pages : int; erases : int }
  | Span of { cat : string; name : string; tid : int; t0 : float; t1 : float }
  | Repl_ship of { records : int; bytes : int }
  | Repl_install of { records : int }
  | Repl_ack of { lsn : int }
  | Repl_degraded
  | Wal_reclaim of { upto_lsn : int; freed_bytes : int }
  | Backpressure of { on : bool; usage : float }
  | Degraded of { subsystem : string; reason : string }
  | Ssi_siread of { xid : int; rel : int; predicate : bool }
  | Ssi_rw_edge of { reader : int; writer : int; lineage : bool }
  | Ssi_pivot_abort of { xid : int; confirmed : bool }
  | Wsi_certify_abort of { xid : int }
  | Ssi_safe_snapshot of { xid : int }
  | Index_split of { rel : int; level : int }
  | Index_merge of { rel : int; level : int }
  | Index_page_io of { rel : int; block : int; deltas : int }

let io_op_to_string = function Io_read -> "read" | Io_write -> "write"

(* A bus belongs to the domain that created it: subscribers are plain
   closures over unsynchronized state (metrics registries, the SI
   checker), so publishing from another domain would be a data race the
   type system cannot see. [owner] pins the creating domain and
   [publish]/[subscribe] assert it — a shard's bus must live and die on
   the shard's domain. *)
type t = { mutable subs : (event -> unit) array; owner : int }

let create () = { subs = [||]; owner = (Domain.self () :> int) }

let check_owner t op =
  let self = (Domain.self () :> int) in
  if self <> t.owner then
    failwith
      (Printf.sprintf
         "Bus.%s from domain %d but the bus is owned by domain %d: \
          subscribers are not synchronized — keep each bus on its own \
          domain"
         op self t.owner)

let subscribe t f =
  check_owner t "subscribe";
  t.subs <- Array.append t.subs [| f |]

let active t = Array.length t.subs > 0

let publish t e =
  check_owner t "publish";
  for i = 0 to Array.length t.subs - 1 do
    (Array.unsafe_get t.subs i) e
  done

let subscriber_count t = Array.length t.subs
