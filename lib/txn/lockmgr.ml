type outcome = Granted | Conflict of int

type t = {
  locks : (int * int, int) Hashtbl.t; (* (rel, key) -> owner xid *)
  owned : (int, (int * int) list) Hashtbl.t; (* xid -> keys held *)
}

let create () = { locks = Hashtbl.create 256; owned = Hashtbl.create 64 }

let try_acquire t ~xid ~rel ~key =
  let k = (rel, key) in
  match Hashtbl.find_opt t.locks k with
  | Some owner when owner = xid -> Granted
  | Some owner -> Conflict owner
  | None ->
      Hashtbl.replace t.locks k xid;
      let held = Option.value ~default:[] (Hashtbl.find_opt t.owned xid) in
      Hashtbl.replace t.owned xid (k :: held);
      Granted

let release_all t ~xid =
  (match Hashtbl.find_opt t.owned xid with
  | Some keys -> List.iter (Hashtbl.remove t.locks) keys
  | None -> ());
  Hashtbl.remove t.owned xid

(* Crash semantics: every in-flight transaction evaporated with the
   process, so no lock survives. *)
let reset t =
  Hashtbl.reset t.locks;
  Hashtbl.reset t.owned

let holder t ~rel ~key = Hashtbl.find_opt t.locks (rel, key)
