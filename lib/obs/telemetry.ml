(* Retry/interference accounting over the lock-free functor seam.

   A [site] owns a block of per-domain-sharded integer counter cells.
   The [Counting_atomic]/[Counting_mutex] functors wrap any base
   ATOMIC/MUTEX implementation and bump the site's counters on every
   operation, so instantiating a structure's [Make] functor with a
   counting layer instruments it without touching the structure.

   Hot-path discipline: an increment is one array load, one add, one
   store into a cell owned (modulo shard-mask collisions) by the
   incrementing domain — no allocation, no atomics, no contention on
   the common path. Cells of different shards are [stride] words apart
   so two domains never write the same cache line. Totals are computed
   only at snapshot time by summing shards; concurrent increments can
   be missed by an in-flight snapshot (counters are monotone, reads
   are racy by design — quiesce before reading exact totals). *)

type counter =
  | Reads
  | Writes
  | Cas_attempts
  | Cas_failures
  | Fetch_adds
  | Lock_acquires
  | Lock_conflicts
  | Backoff_spins

let slot = function
  | Reads -> 0
  | Writes -> 1
  | Cas_attempts -> 2
  | Cas_failures -> 3
  | Fetch_adds -> 4
  | Lock_acquires -> 5
  | Lock_conflicts -> 6
  | Backoff_spins -> 7

(* 64 shards × 16-word stride: counters of one shard span at most two
   cache lines and shards never share one. Domain ids are masked into
   the shard space; two domains 64 apart would share cells (racy but
   monotone-ish increments, never a crash) — far beyond the domain
   counts this repo runs. *)
let shards = 64
let stride = 16

type site = { id : int; name : string; cells : int array }

(* The registry: sites live for the process lifetime (they are named
   instrumentation points, not per-operation state). *)
let registry : site list ref = ref []
let registry_mutex = Stdlib.Mutex.create ()
let next_id = ref 0

let register name =
  Stdlib.Mutex.lock registry_mutex;
  let id = !next_id in
  incr next_id;
  let site = { id; name; cells = Array.make (shards * stride) 0 } in
  registry := site :: !registry;
  Stdlib.Mutex.unlock registry_mutex;
  site

let name site = site.name

let sites () =
  Stdlib.Mutex.lock registry_mutex;
  let all = List.rev !registry in
  Stdlib.Mutex.unlock registry_mutex;
  all

let shard_base () =
  ((Domain.self () :> int) land (shards - 1)) * stride

let bump site k =
  let i = shard_base () + slot k in
  Array.unsafe_set site.cells i (Array.unsafe_get site.cells i + 1)

let bump_by site k n =
  let i = shard_base () + slot k in
  Array.unsafe_set site.cells i (Array.unsafe_get site.cells i + n)

let count site k =
  let s = slot k in
  let total = ref 0 in
  for shard = 0 to shards - 1 do
    total := !total + site.cells.((shard * stride) + s)
  done;
  !total

let reset site = Array.fill site.cells 0 (Array.length site.cells) 0

(* --- snapshots -------------------------------------------------------- *)

type snapshot = {
  site : string;
  reads : int;
  writes : int;
  cas_attempts : int;
  cas_failures : int;
  fetch_adds : int;
  lock_acquires : int;
  lock_conflicts : int;
  backoff_spins : int;
}

let snapshot site =
  {
    site = site.name;
    reads = count site Reads;
    writes = count site Writes;
    cas_attempts = count site Cas_attempts;
    cas_failures = count site Cas_failures;
    fetch_adds = count site Fetch_adds;
    lock_acquires = count site Lock_acquires;
    lock_conflicts = count site Lock_conflicts;
    backoff_spins = count site Backoff_spins;
  }

let is_quiet s =
  s.reads = 0 && s.writes = 0 && s.cas_attempts = 0 && s.cas_failures = 0
  && s.fetch_adds = 0 && s.lock_acquires = 0 && s.lock_conflicts = 0
  && s.backoff_spins = 0

let cas_failure_rate s =
  if s.cas_attempts = 0 then 0.0
  else float_of_int s.cas_failures /. float_of_int s.cas_attempts

let snapshot_json s =
  Json.Obj
    [
      ("site", Json.Str s.site);
      ("reads", Json.Int s.reads);
      ("writes", Json.Int s.writes);
      ("cas_attempts", Json.Int s.cas_attempts);
      ("cas_failures", Json.Int s.cas_failures);
      ("cas_failure_rate", Json.Float (cas_failure_rate s));
      ("fetch_adds", Json.Int s.fetch_adds);
      ("lock_acquires", Json.Int s.lock_acquires);
      ("lock_conflicts", Json.Int s.lock_conflicts);
      ("backoff_spins", Json.Int s.backoff_spins);
    ]

(* --- backoff spin routing --------------------------------------------- *)

(* One site for the whole process: [Backoff.once] has no site context
   (structures create their own backoff state internally), so spins
   are attributed globally. Reset it around a region of interest to
   attribute spins to that region. *)
let backoff_site = lazy (register "backoff")

let install_backoff_observer () =
  let site = Lazy.force backoff_site in
  Rtlf_lockfree.Backoff.set_observer
    (Some (fun spins -> bump_by site Backoff_spins spins));
  site

let uninstall_backoff_observer () =
  Rtlf_lockfree.Backoff.set_observer None

(* --- counting instrumentation layers ---------------------------------- *)

module type SITE = sig
  val site : site
end

module Counting_atomic
    (Base : Rtlf_lockfree.Atomic_intf.ATOMIC)
    (S : SITE) :
  Rtlf_lockfree.Atomic_intf.ATOMIC with type 'a t = 'a Base.t = struct
  type 'a t = 'a Base.t

  let site = S.site

  let make v = Base.make v

  let get r =
    bump site Reads;
    Base.get r

  let set r v =
    bump site Writes;
    Base.set r v

  let exchange r v =
    bump site Writes;
    Base.exchange r v

  let compare_and_set r old nv =
    bump site Cas_attempts;
    let ok = Base.compare_and_set r old nv in
    if not ok then bump site Cas_failures;
    ok

  let fetch_and_add r d =
    bump site Fetch_adds;
    Base.fetch_and_add r d

  let incr r = ignore (fetch_and_add r 1)
  let decr r = ignore (fetch_and_add r (-1))
end

(* Conflict detection needs [try_lock], which the MUTEX signature
   deliberately omits (the checker's cooperative mutex cannot provide
   it); the counting mutex therefore instruments [Stdlib.Mutex]
   directly rather than wrapping an arbitrary base. *)
module Counting_mutex (S : SITE) :
  Rtlf_lockfree.Atomic_intf.MUTEX with type t = Stdlib.Mutex.t = struct
  type t = Stdlib.Mutex.t

  let site = S.site

  let create () = Stdlib.Mutex.create ()

  let lock m =
    if not (Stdlib.Mutex.try_lock m) then begin
      bump site Lock_conflicts;
      Stdlib.Mutex.lock m
    end;
    bump site Lock_acquires

  let unlock m = Stdlib.Mutex.unlock m
end
