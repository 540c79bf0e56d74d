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
    [None] if [q] is empty. The queue never keeps more payloads
    reachable than {!length} reports: popped events are released to the
    GC. *)

val pop_payload : 'a t -> 'a
(** [pop_payload q] removes the earliest event and returns its payload
    alone (read its key first with {!min_time}). It allocates nothing.
    Raises [Invalid_argument] on an empty queue. *)

val to_list : 'a t -> (int * 'a) list
(** [to_list q] is the queue contents in dequeue order, without
    modifying [q]. *)
