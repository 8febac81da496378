(** The linter's command-line surface, mounted as the [mcc lint]
    subcommand.  A run is recorded in the run ledger unless
    [--no-ledger] is given, as for [mcc run], [matrix] and [profile]. *)

val term : name:string -> int Cmdliner.Term.t
(** The command term; evaluates to the process exit code (0 clean,
    1 findings, 2 errors).  [name] prefixes diagnostics. *)

val info : name:string -> Cmdliner.Cmd.info
(** The command metadata (doc string and man page) under the given
    command name. *)
