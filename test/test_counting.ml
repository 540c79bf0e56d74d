(* Differential tests for the telemetry counting layers: a structure
   instantiated with [Counting_atomic] must behave bit-identically to
   its [Stdlib_atomic] twin (the layer only counts, never alters
   semantics), and the counters must agree with the structure's own
   retry accounting under a real multi-domain stress run. *)

module T = Rtlf_obs.Telemetry
module A = Rtlf_lockfree.Atomic_intf
module P = Rtlf_engine.Prng

let site_treiber = T.register "test:treiber"
let site_msq = T.register "test:ms_queue"
let site_mutex = T.register "test:mutex"

module Counting = T.Counting_atomic (A.Stdlib_atomic)

module Treiber_counted =
  Rtlf_lockfree.Treiber_stack.Make (Counting (struct
    let site = site_treiber
  end))

module Msq_counted =
  Rtlf_lockfree.Ms_queue.Make (Counting (struct
    let site = site_msq
  end))

module Lockq_counted = Rtlf_lockfree.Lock_queue.Make (T.Counting_mutex (struct
  let site = site_mutex
end))

(* Single-domain differential run: drive the counted structure and the
   plain one through the same random op sequence; every observable
   result must match, and single-domain CAS never fails. *)
let test_treiber_differential () =
  T.reset site_treiber;
  let g = Test_support.prng () in
  let counted = Treiber_counted.create () in
  let plain = Rtlf_lockfree.Treiber_stack.create () in
  for _ = 1 to 2000 do
    match P.int g ~bound:4 with
    | 0 | 1 ->
      let v = P.int g ~bound:1000 in
      Treiber_counted.push counted v;
      Rtlf_lockfree.Treiber_stack.push plain v
    | 2 ->
      Alcotest.(check (option int))
        "pop" (Rtlf_lockfree.Treiber_stack.pop plain)
        (Treiber_counted.pop counted)
    | _ ->
      Alcotest.(check (option int))
        "peek" (Rtlf_lockfree.Treiber_stack.peek plain)
        (Treiber_counted.peek counted)
  done;
  Alcotest.(check (list int))
    "final contents"
    (Rtlf_lockfree.Treiber_stack.to_list plain)
    (Treiber_counted.to_list counted);
  let s = T.snapshot site_treiber in
  Alcotest.(check int) "single-domain CAS never fails" 0 s.T.cas_failures;
  Alcotest.(check bool) "CAS attempts recorded" true (s.T.cas_attempts > 0);
  Alcotest.(check bool) "reads recorded" true (s.T.reads > 0)

let test_msq_differential () =
  T.reset site_msq;
  let g = Test_support.prng () in
  let counted = Msq_counted.create () in
  let plain = Rtlf_lockfree.Ms_queue.create () in
  for _ = 1 to 2000 do
    match P.int g ~bound:4 with
    | 0 | 1 ->
      let v = P.int g ~bound:1000 in
      Msq_counted.enqueue counted v;
      Rtlf_lockfree.Ms_queue.enqueue plain v
    | 2 ->
      Alcotest.(check (option int))
        "dequeue" (Rtlf_lockfree.Ms_queue.dequeue plain)
        (Msq_counted.dequeue counted)
    | _ ->
      Alcotest.(check (option int))
        "peek" (Rtlf_lockfree.Ms_queue.peek plain)
        (Msq_counted.peek counted)
  done;
  Alcotest.(check (list int))
    "final contents"
    (Rtlf_lockfree.Ms_queue.to_list plain)
    (Msq_counted.to_list counted);
  let s = T.snapshot site_msq in
  Alcotest.(check int) "single-domain CAS never fails" 0 s.T.cas_failures;
  Alcotest.(check bool) "CAS attempts recorded" true (s.T.cas_attempts > 0)

(* Two-domain stress: the telemetry layer and the structure's own
   retry counter observe the same CAS failures. The Treiber stack
   counts every failed head-CAS as a retry, so the two totals must be
   equal exactly — whatever interleaving the machine produced. *)
let test_stress_counters_agree () =
  T.reset site_treiber;
  let st = Treiber_counted.create () in
  let report =
    Rtlf_lockfree.Stress.run ~domains:2 ~ops:20_000
      ~push:(fun v -> Treiber_counted.push st v)
      ~pop:(fun () -> Treiber_counted.pop st)
      ~drain:(fun () -> Treiber_counted.to_list st)
  in
  Alcotest.(check bool) "conserved" true
    (Rtlf_lockfree.Stress.conserved report);
  let s = T.snapshot site_treiber in
  Alcotest.(check int)
    "telemetry cas_failures = structure retries"
    (Treiber_counted.retries st) s.T.cas_failures;
  Alcotest.(check bool)
    "attempts >= failures" true
    (s.T.cas_attempts >= s.T.cas_failures)

let test_counting_mutex () =
  T.reset site_mutex;
  let q = Lockq_counted.create () in
  for i = 1 to 100 do
    Lockq_counted.enqueue q i
  done;
  for _ = 1 to 100 do
    ignore (Lockq_counted.dequeue q)
  done;
  let s = T.snapshot site_mutex in
  Alcotest.(check bool) "acquires recorded" true (s.T.lock_acquires >= 200);
  Alcotest.(check int) "uncontended: no conflicts" 0 s.T.lock_conflicts;
  (* A 2-domain stress run keeps the queue coherent under the counting
     mutex, and acquires keep counting. *)
  let before = s.T.lock_acquires in
  let report =
    Rtlf_lockfree.Stress.run ~domains:2 ~ops:5_000
      ~push:(fun v -> Lockq_counted.enqueue q v)
      ~pop:(fun () -> Lockq_counted.dequeue q)
      ~drain:(fun () -> Lockq_counted.to_list q)
  in
  Alcotest.(check bool) "conserved" true
    (Rtlf_lockfree.Stress.conserved report);
  let s' = T.snapshot site_mutex in
  Alcotest.(check bool) "stress acquires recorded" true
    (s'.T.lock_acquires > before)

(* Sharded cells must not lose increments within one domain, and
   [reset] must zero every shard. *)
let test_counter_mechanics () =
  let site = T.register "test:mechanics" in
  for _ = 1 to 1234 do
    T.bump site T.Cas_attempts
  done;
  T.bump_by site T.Backoff_spins 17;
  Alcotest.(check int) "bump count" 1234 (T.count site T.Cas_attempts);
  Alcotest.(check int) "bump_by count" 17 (T.count site T.Backoff_spins);
  Alcotest.(check int) "other counters untouched" 0 (T.count site T.Reads);
  T.reset site;
  Alcotest.(check int) "reset" 0 (T.count site T.Cas_attempts);
  Alcotest.(check bool) "quiet after reset" true
    (T.is_quiet (T.snapshot site))

let test_backoff_observer () =
  let site = T.install_backoff_observer () in
  T.reset site;
  let b = Rtlf_lockfree.Backoff.create () in
  for _ = 1 to 5 do
    Rtlf_lockfree.Backoff.once b
  done;
  T.uninstall_backoff_observer ();
  let spun = T.count site T.Backoff_spins in
  Alcotest.(check bool)
    (Printf.sprintf "spins recorded (%d)" spun)
    true (spun > 0);
  (* After uninstall, spinning no longer counts. *)
  let before = T.count site T.Backoff_spins in
  let b2 = Rtlf_lockfree.Backoff.create () in
  for _ = 1 to 3 do
    Rtlf_lockfree.Backoff.once b2
  done;
  Alcotest.(check int) "uninstalled observer silent" before
    (T.count site T.Backoff_spins)

let () =
  Test_support.run "counting"
    [
      ( "counting",
        [
          Alcotest.test_case "treiber differential vs stdlib" `Quick
            test_treiber_differential;
          Alcotest.test_case "ms-queue differential vs stdlib" `Quick
            test_msq_differential;
          Alcotest.test_case "2-domain stress: counters agree" `Quick
            test_stress_counters_agree;
          Alcotest.test_case "counting mutex" `Quick test_counting_mutex;
          Alcotest.test_case "counter mechanics" `Quick
            test_counter_mechanics;
          Alcotest.test_case "backoff observer" `Quick test_backoff_observer;
        ] );
    ]
