(** Checking scenarios: one {!def} per structure, binding an
    instrumented instance (the structure's [Make] functor over
    {!Shim.Atomic}/{!Shim.Mutex}), a sequential spec for the
    linearizability oracle, audit ops pinning the final state, fixed
    smoke programs (explored exhaustively under a preemption bound) and
    a seeded generator of random programs. *)

(** Shared op vocabulary across all structures. *)
type op =
  | Push of int
  | Pop
  | Enq of int
  | Deq
  | TryPush of int
  | TryPop
  | Add of int
  | Remove of int
  | Mem of int
  | Write of int
  | Read
  | Update of int * int
  | Scan
  | Section
      (** Spin-lock critical section: acquire, increment the protected
          counter, release; returns the handle's FIFO ranks plus the
          counter value observed. *)

type res = Unit | Bool of bool | Int of int | Opt of int option | Arr of int list

val pp_op : Format.formatter -> op -> unit
val pp_res : Format.formatter -> res -> unit

type def
(** A checkable structure. *)

val name : def -> string
val demo : def -> bool
(** Demo defs are deliberately buggy demonstration targets; excluded
    from "check all" but runnable by name. *)

val descr : def -> string

val all : def list
val find : string -> def option

type counterexample = {
  structure : string;
  reason : string;
  ops : op list array;       (** minimised program *)
  outcome : Sched.outcome;   (** failing (minimised) execution *)
  calls : (op, res) History.call list;  (** its observed history *)
}

type report = {
  name : string;
  cases : int;               (** programs explored *)
  execs : int;               (** schedule re-executions *)
  counterexample : counterexample option;
}

val run : def -> fast:bool -> seed:int -> report
(** Explore the def's smoke programs exhaustively (preemption-bounded)
    and seeded-random programs under random schedules; on failure,
    shrink (drop ops to a fixpoint, then re-discover at the lowest
    preemption bound) and return the minimised counterexample. *)

val replay : counterexample -> bool
(** Re-execute the counterexample's recorded schedule choices on a
    fresh instance; [true] iff the failure reproduces. *)

val pp_counterexample : Format.formatter -> counterexample -> unit
val pp_report : Format.formatter -> report -> unit
