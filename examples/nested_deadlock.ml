(* Nested critical sections and deadlock resolution (§3.3).

     dune exec examples/nested_deadlock.exe

   Two tasks take two locks in opposite order — the textbook deadlock.
   Lock-based RUA detects the wait-for cycle at the next scheduling
   event and aborts the cycle member with the least potential utility
   density; the survivor proceeds. Under lock-free sharing the same
   profiles cannot deadlock at all (nested sections do not exist in
   the lock-free model). *)

module Task = Rtlf_model.Task
module Tuf = Rtlf_model.Tuf
module Uam = Rtlf_model.Uam
module Segment = Rtlf_model.Segment
module Sync = Rtlf_sim.Sync
module Simulator = Rtlf_sim.Simulator
module Trace = Rtlf_sim.Trace

let us n = n * 1_000
let ms n = n * 1_000_000

let profile first second =
  [
    Segment.Lock first;
    Segment.Compute (us 1000);
    Segment.Lock second;      (* nested acquisition *)
    Segment.Compute (us 50);
    Segment.Unlock second;
    Segment.Unlock first;
  ]

let tasks =
  [
    Task.make_nested ~id:0 ~name:"db-writer"
      ~tuf:(Tuf.step ~height:100.0 ~c:(us 4500))
      ~arrival:(Uam.periodic ~period:(us 5000))
      ~profile:(profile 0 1) ();
    Task.make_nested ~id:1 ~name:"log-flusher"
      ~tuf:(Tuf.step ~height:5.0 ~c:(us 3000))
      ~arrival:(Uam.periodic ~period:(us 4700))
      ~profile:(profile 1 0) ();
  ]

let run ~sync =
  Simulator.run
    (Simulator.config ~tasks ~sync ~n_objects:2 ~horizon:(ms 200) ~seed:3
       ~trace:true ())

let summarize label (res : Simulator.result) =
  Printf.printf "%-12s completed=%-4d aborted=%-3d blockings=%-3d AUR=%5.1f%%\n"
    label res.Simulator.completed res.Simulator.aborted
    res.Simulator.blocked_events
    (100.0 *. res.Simulator.aur);
  Array.iter
    (fun (tr : Simulator.task_result) ->
      Printf.printf "    task %d: %d completed, %d aborted\n"
        tr.Simulator.task_id tr.Simulator.completed tr.Simulator.aborted)
    res.Simulator.per_task

let () =
  print_endline
    "Opposite lock orders: db-writer takes (0 then 1), log-flusher (1 then \
     0).\n";
  let sync = Sync.Lock_based { overhead = 100 } in
  let lb = run ~sync in
  summarize "lock-based" lb;
  print_newline ();
  print_string
    (Rtlf_obs.Timeline.render
       (Rtlf_obs.Timeline.build ~buckets:72 ~max_jobs:8 lb.Simulator.trace));
  (match Trace.check ~sync lb.Simulator.trace with
  | Ok () ->
    print_endline
      "    invariant: the trace is legal (every abort released its locks)"
  | Error msg -> print_endline ("    INVARIANT VIOLATION: " ^ msg));
  print_newline ();
  let lf = run ~sync:(Sync.Lock_free { overhead = 150 }) in
  summarize "lock-free" lf;
  print_newline ();
  print_endline
    "Lock-based RUA resolves each deadlock by sacrificing the \
     low-utility\nlog-flusher (least PUD in the cycle). Lock-free sharing \
     never deadlocks\n-- the paper's argument for avoiding dependencies \
     altogether."
