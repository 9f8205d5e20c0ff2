(* Small parallel-execution primitives for OCaml 5 domains.

   The design follows the shared-nothing model (cf. DragonflyBSD's
   netisr): work is partitioned per domain up front and domains own
   their data outright. The only cross-domain traffic is the start
   barrier below and the results [run] returns when the domains join. *)

module Barrier = struct
  type t = {
    m : Mutex.t;
    c : Condition.t;
    parties : int;
    mutable waiting : int;
    mutable phase : int;
  }

  let create parties =
    if parties < 1 then invalid_arg "Domainpool.Barrier.create";
    { m = Mutex.create (); c = Condition.create ();
      parties; waiting = 0; phase = 0 }

  let wait t =
    Mutex.lock t.m;
    let my_phase = t.phase in
    t.waiting <- t.waiting + 1;
    if t.waiting = t.parties then begin
      t.waiting <- 0;
      t.phase <- t.phase + 1;
      Condition.broadcast t.c
    end else
      while t.phase = my_phase do
        Condition.wait t.c t.m
      done;
    Mutex.unlock t.m
end

(* Run [f 0 .. f (domains-1)] in parallel and return their results in
   index order. [domains = 1] runs inline on the calling domain — no
   spawn, no barrier cost — which is what keeps the single-domain sim
   path byte-exact and scheduler-free. An exception in any worker is
   re-raised after all domains have been joined. *)
let run ~domains f =
  if domains < 1 then invalid_arg "Domainpool.run: domains must be >= 1";
  if domains = 1 then [| f 0 |]
  else begin
    let workers =
      Array.init domains (fun i -> Domain.spawn (fun () -> f i))
    in
    let results = Array.make domains None in
    let first_exn = ref None in
    Array.iteri
      (fun i d ->
        match Domain.join d with
        | v -> results.(i) <- Some v
        | exception e -> if !first_exn = None then first_exn := Some e)
      workers;
    (match !first_exn with Some e -> raise e | None -> ());
    Array.map
      (function Some v -> v | None -> assert false)
      results
  end
