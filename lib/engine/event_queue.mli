(** Time-ordered priority queue for discrete-event simulation.

    Events are dequeued in non-decreasing key order; events with equal
    keys are dequeued in insertion (FIFO) order, which keeps simulations
    deterministic when several events share a timestamp. Keys are
    arbitrary [int]s — the simulator uses virtual nanoseconds. *)

type 'a t
(** Mutable event queue holding elements of type ['a]. *)

val create : unit -> 'a t
(** [create ()] is an empty queue. *)

val is_empty : 'a t -> bool
(** [is_empty q] is [true] iff [q] holds no event. *)

val length : 'a t -> int
(** [length q] is the number of queued events. *)

val add : 'a t -> time:int -> 'a -> unit
(** [add q ~time e] schedules event [e] at key [time]. *)

val peek : 'a t -> (int * 'a) option
(** [peek q] is the earliest [(time, event)] pair without removing it,
    or [None] if [q] is empty. *)

val min_time : 'a t -> int
(** [min_time q] is the key of the earliest event, or [max_int] when
    [q] is empty. *)

val pop : 'a t -> (int * 'a) option
(** [pop q] removes and returns the earliest [(time, event)] pair, or
    [None] if [q] is empty. *)

val pop_payload : 'a t -> 'a
(** [pop_payload q] removes the earliest event and returns its payload
    alone (read its key first with {!min_time}). It allocates nothing.
    Raises [Invalid_argument] on an empty queue. *)

val clear : 'a t -> unit
(** [clear q] removes every event. Cleared payloads become collectable
    immediately (live slots are scrubbed with a sentinel), but the
    backing storage is retained so a clear-then-refill cycle performs no
    fresh allocation up to the previous capacity. The queue never keeps
    more payloads reachable than {!length} reports: popped, filtered and
    cleared events are released to the GC. *)

val capacity : 'a t -> int
(** [capacity q] is the current size of the backing storage (slots, not
    live events). Exposed so reuse-sensitive callers and tests can
    verify that {!clear} retains capacity. *)

val drain : 'a t -> (int * 'a) list
(** [drain q] removes and returns all events in dequeue order. *)

val filter_in_place : 'a t -> (int -> 'a -> bool) -> unit
(** [filter_in_place q keep] removes every event [e] at time [t] for
    which [keep t e] is [false]. Dequeue order of survivors is
    preserved; removed payloads become collectable immediately. [keep]
    is called once per event in an unspecified order. Costs O(n) with
    no intermediate list (in-place compaction + bottom-up heapify). *)

val to_list : 'a t -> (int * 'a) list
(** [to_list q] is the queue contents in dequeue order, without
    modifying [q]. *)
