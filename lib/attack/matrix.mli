(** The defence-evaluation matrix: attack × protocol × defence cells.

    Each cell is one {!Mcc_core.Spec.Adversary} experiment — a 1 Mbps
    dumbbell carrying the attacked session, an honest victim session of
    the same protocol, and one TCP flow — whose result is the cell's
    damage metrics ({!Mcc_core.Experiments.adversary_result}): honest
    goodput loss, attacker gain in fair shares, and time to containment.

    Cells run through the ordinary {!Mcc_core.Runner} batch machinery,
    so a matrix parallelises across domains and its sink output is
    byte-identical for any [--jobs].  Linking this module registers
    {!run_cell} as the [Spec.Adversary] implementation
    ({!Mcc_core.Experiments.set_adversary_impl}). *)

val run_cell :
  Mcc_core.Spec.adversary_params -> Mcc_core.Experiments.adversary_result
(** Simulate one cell.  The defence deploys what
    {!Mcc_core.Spec.deployment} says, with interface-specific keys at
    the SIGMA edge.  The adversary is a session member for member
    attacks on a protocol whose module carries an adversary context
    ({!Mcc_core.Protocol.S.history}: FLID), a standalone bare attacker
    ({!Strategy.launch_bare}) otherwise. *)

val default_attacks : Mcc_core.Spec.attack_kind list
(** All six strategies at their default parameters, in
    {!Mcc_core.Spec.attack_kind} declaration order: the matrix's attack
    rows and the CLI's [--attacks] choices. *)

val entries :
  ?seed:int ->
  ?duration:float ->
  ?attack_at:float ->
  ?attacks:Mcc_core.Spec.attack_kind list ->
  ?protocols:Mcc_core.Spec.protocol list ->
  ?defences:Mcc_core.Spec.defence list ->
  unit ->
  Mcc_core.Runner.entry list
(** The grid as runner entries named
    ["matrix-<attack>-<protocol>-<defence>"], all in group ["matrix"]
    (attack-major, defence-minor order).  Defaults come from
    {!Mcc_core.Spec.default_adversary}, {!default_attacks} and the Spec
    registries ({!Mcc_core.Spec.protocols}, {!Mcc_core.Spec.defences}). *)

val run :
  ?jobs:int ->
  ?sched:Mcc_engine.Scheduler.backend ->
  ?sample_dt:float ->
  ?sinks:Mcc_core.Sink.t list ->
  ?on_progress:(Mcc_obs.Progress.sample -> unit) ->
  ?progress_interval:float ->
  Mcc_core.Runner.entry list ->
  Mcc_core.Runner.row list
(** [Runner.run_batch] with the (run-varying) profile stripped from
    every record — sinks are fed in entry order whatever [jobs] or
    [sched] is, so matrix files are byte-identical across job counts
    and scheduler backends.  [on_progress]/[progress_interval] pass
    through to {!Mcc_core.Runner.run_batch}'s live-telemetry monitor and
    never touch sink bytes. *)
