(** Public facade of the deterministic interleaving checker.

    [run_one] explores a structure's programs under
    controlled schedules ({!Sched}), judge every execution with the
    linearizability oracle ({!History}) plus retry-monotonicity
    invariants, and shrink any failure to a minimal annotated
    interleaving ({!Scenario.counterexample}). *)

val structures : unit -> string list
(** Real structures, the targets of "check all". *)

val demos : unit -> string list
(** Deliberately buggy demonstration targets (runnable by name,
    excluded from "all"). *)

val describe : string -> string option

val default_seed : int

val run_one :
  ?fast:bool -> ?seed:int -> string -> (Scenario.report, string) result
(** [Error] for an unknown name. [fast] trims exploration budgets to
    CI scale. *)
