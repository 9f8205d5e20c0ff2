(* GC's buffer-pool accesses are part of the simulated model: the order in
   which mark and sweep touch pages decides ring hits and misses, frame
   evictions and write-backs, and so the device traffic a run charges.
   One seeded workload per version store (vectors, chains, in place),
   with a pool far below the heap, a paged VID_map and a paged index.
   The numbers pinned here were captured before GC read heap items in
   the page frame; a host-side rewrite of GC must reproduce them. *)

module Value = Mvcc.Value
module Db = Mvcc.Db
module Bufpool = Sias_storage.Bufpool
module Rng = Sias_util.Rng
module Vs = Mvcc.Version_store

let row k v = [| Value.Int k; Value.Int v; Value.Str (String.make (60 + (k mod 100)) 'p') |]

let set_v v r =
  let r = Array.copy r in
  r.(1) <- Value.Int v;
  r

type counts = {
  hits : int;
  misses : int;
  evictions : int;
  flushes : int;
  swept : int;
  relocated : int;
  reclaimed : int;
  compacted : int;
}

let pp_counts c =
  Printf.sprintf
    "{ hits = %d; misses = %d; evictions = %d; flushes = %d; swept = %d; relocated = %d; \
     reclaimed = %d; compacted = %d }"
    c.hits c.misses c.evictions c.flushes c.swept c.relocated c.reclaimed c.compacted

module Drive (V : Mvcc.Engine_skeleton.VERSION_STORE) = struct
  module E = Mvcc.Engine_skeleton.Make (V)

  (* Pool and GC counters after a seeded round of inserts, updates and
     deletes over a pool of 40 pages, with an old snapshot spanning some
     rounds, checkpoints sealing the append pages, and a writer holding
     item locks while GC runs. The pool counters are the GC's own
     (after minus before). *)
  let run ~compacted () =
    let db = Db.create ~buffer_pages:40 ~vidmap_paged:true ~index:`Paged () in
    let eng = E.create db in
    let table = E.create_table eng ~name:"t" ~pk_col:0 ~secondary:[ 1 ] () in
    let rng = Rng.create 42 in
    let commit f =
      let txn = E.begin_txn eng in
      f txn;
      ignore (E.commit eng txn)
    in
    let n = 1200 in
    commit (fun txn ->
        for k = 1 to n do
          ignore (E.insert eng txn table (row k 0))
        done);
    let reader = ref None in
    for round = 1 to 6 do
      commit (fun txn ->
          for _ = 1 to 600 do
            let k = 1 + Rng.int rng n in
            if Rng.int rng 20 = 0 then ignore (E.delete eng txn table ~pk:k)
            else ignore (E.update eng txn table ~pk:k (set_v round))
          done);
      if round mod 2 = 0 then Bufpool.flush_all db.Db.pool ~sync:false;
      if round = 2 then reader := Some (E.begin_txn eng);
      if round = 4 then Option.iter (fun r -> ignore (E.commit eng r)) !reader
    done;
    let writer = E.begin_txn eng in
    for k = 1 to 5 do
      ignore (E.update eng writer table ~pk:(k * 7) (set_v 99))
    done;
    let s0 = Bufpool.stats db.Db.pool in
    E.gc eng;
    let s1 = Bufpool.stats db.Db.pool in
    ignore (E.commit eng writer);
    {
      hits = s1.hits - s0.hits;
      misses = s1.misses - s0.misses;
      evictions = s1.evictions - s0.evictions;
      flushes = s1.flushes - s0.flushes;
      swept = eng.Vs.swept;
      relocated = eng.Vs.relocated;
      reclaimed = eng.Vs.reclaimed;
      compacted = compacted eng;
    }
end

module Vectors = Drive (Mvcc.Vector)
module Chains = Drive (Mvcc.Chain)

module In_place = Drive (Mvcc.In_place.Make (struct
  let name = "SI"
  let placement = Sias_storage.Heapfile.Free_space_first
end))

let case name run expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) "GC pool and GC counters" (pp_counts expected) (pp_counts (run ())))

(* ---------------- the live set ----------------

   The slot bitmap against a hash-table reference: random adds and
   removes over blocks past the set's initial extent (so it grows) and
   slots up to the widest a TID holds; after every step [mem] must agree
   on every pair touched so far. *)

module Liveset = Vs.Liveset
module Tid = Sias_storage.Tid

(* a TID's slot field is 16 bits wide *)
let widest_slot = 0xFFFF

let gen_op =
  let open QCheck.Gen in
  let slot =
    frequency [ (6, int_bound 300); (1, int_range 60000 widest_slot); (1, pure widest_slot) ]
  in
  triple bool (int_bound 40) slot

let qcheck_liveset =
  QCheck.Test.make ~name:"live set agrees with a hash-table reference" ~count:300
    QCheck.(
      make ~print:Print.(list (triple bool int int)) Gen.(list_size (int_range 1 200) gen_op))
    (fun ops ->
      let live = Liveset.create ~blocks:4 in
      let reference = Hashtbl.create 64 in
      let touched = ref [] in
      List.for_all
        (fun (add, block, slot) ->
          let tid = Tid.make ~block ~slot in
          touched := tid :: !touched;
          if add then begin
            Liveset.add live tid;
            Hashtbl.replace reference (block, slot) ()
          end
          else begin
            Liveset.remove live tid;
            Hashtbl.remove reference (block, slot)
          end;
          List.for_all
            (fun t ->
              Liveset.mem live t = Hashtbl.mem reference (Tid.block t, Tid.slot t))
            !touched
          && not (Liveset.mem live (Tid.make ~block:(block + 1000) ~slot)))
        ops)

let suite =
  QCheck_alcotest.to_alcotest qcheck_liveset
  :: [
    case "vectors: GC keeps the pool's access sequence"
      (Vectors.run ~compacted:Mvcc.Vector.compacted)
      {
        hits = 7879;
        misses = 1520;
        evictions = 249;
        flushes = 33;
        swept = 4822;
        relocated = 66;
        reclaimed = 225;
        compacted = 1130;
      };
    case "chains: GC keeps the pool's access sequence"
      (Chains.run ~compacted:(fun _ -> 0))
      {
        hits = 6327;
        misses = 561;
        evictions = 83;
        flushes = 11;
        swept = 3047;
        relocated = 537;
        reclaimed = 74;
        compacted = 0;
      };
    case "in place: GC keeps the pool's access sequence"
      (In_place.run ~compacted:(fun _ -> 0))
      {
        hits = 26916;
        misses = 189;
        evictions = 131;
        flushes = 104;
        swept = 3377;
        relocated = 0;
        reclaimed = 0;
        compacted = 0;
      };
  ]
