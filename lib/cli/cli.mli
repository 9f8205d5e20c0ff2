(** The one flag vocabulary of [sias_cli] and [bench/main.exe].

    Every command-line spelling of an {!Harness.Experiments.setup} field
    lives here, as Cmdliner terms, so both binaries accept the same
    values, print the same errors and exit 2 on malformed input before
    anything runs. *)

open Cmdliner

val engine_conv : string Arg.conv
(** An engine registry key or alias, normalised to its key. *)

val at_least : 'a -> 'a Arg.conv -> 'a Arg.conv
(** [at_least lo c] parses like [c] and rejects values below [lo]. *)

val isolation : string Term.t
(** [--isolation si|ssi|wsi] (aliases accepted, normalised to the key). *)

val index : string Term.t
(** [--index array|paged]. *)

val setup : Harness.Experiments.setup Term.t
(** Every run flag of [sias_cli run]/[trace] folded into one setup.
    [--gc 0] disables GC, and a serializable [--isolation] turns the
    online checker on as if [--check-si] had been given. *)

(** The six run flags the bench applies to every experiment's setups:
    [--faults], [--fault-profile], [--synchronous-commit],
    [--commit-delay], [--metrics-out] and [--trace-out]. *)
type overlay = {
  fault_seed : int option;
  fault_profile : Flashsim.Faultdev.profile;
  synchronous_commit : bool;
  commit_delay_s : float;
  metrics_out : string option;
  trace_out : string option;
}

val overlay : overlay Term.t

val fill_in : overlay -> Harness.Experiments.setup -> Harness.Experiments.setup
(** [fill_in o s] gives [s] the overlay's values where it carries none of
    its own: the fault seed and profile when [s] has no [fault_seed], the
    commit pipeline when [s] still runs the default sync commit, and each
    artifact path [s] leaves unset. An experiment's explicit choices win. *)

val eval : unit Cmd.t -> 'a
(** Evaluate [cmd] against [Sys.argv] and exit: 0 on success, 2 on a
    malformed command line, 125 on an uncaught exception. *)
