(* Fault-injection torture: the crash-point fuzz of [Test_chaos] under a
   seeded fault plan on the data device (transient read errors, bit rot,
   torn writes). The crash tears in-flight page writes and loses the
   unflushed WAL tail. Recovery must pass the shared verifier or fail
   loudly ([Corrupt_page] / [Corrupt_wal]); a silently wrong answer is
   the only failing outcome. Runs over all four engines. *)

module Faultdev = Flashsim.Faultdev
module Chaosrun = Harness.Chaosrun

let gen_faults =
  QCheck.Gen.(
    pair (int_bound 10_000)
      (frequency
         [
           (1, return Faultdev.none);
           (3, return Faultdev.light);
           (2, return Faultdev.heavy);
         ]))

let arb_scenario =
  QCheck.make
    ~print:(fun ((seed, profile), ops) ->
      Printf.sprintf "faults(seed=%d,%s): %s" seed (Faultdev.profile_name profile)
        (Test_chaos.print_ops ops))
    QCheck.Gen.(pair gen_faults (list_size (int_range 0 40) Test_chaos.gen_op))

let torture (name, engine) =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(name ^ ": fault-injection recovery torture")
       ~count:200 arb_scenario
       (fun (faults, ops) ->
         Test_chaos.holds (Chaosrun.crash_after (Chaosrun.config ~ops ~faults engine))))

let suite = List.map torture Test_chaos.engine_names
