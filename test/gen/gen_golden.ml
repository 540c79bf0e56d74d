(* Regenerates the exporter golden files used by test_obs.ml.

   Usage: dune exec test/gen/gen_golden.exe -- <output-dir>

   The workload here must stay in lockstep with [golden_result] in
   test_obs.ml: a change to either invalidates the checked-in files
   under test/golden/. export_digests.json pins the Chrome export, the
   span counts and the rendered timelines of every [M1_grid] m = 1 and
   smp config; regenerate it only for a deliberate change to an
   exporter's output, never to absorb an unintended one. *)

module Task = Rtlf_model.Task
module Tuf = Rtlf_model.Tuf
module Uam = Rtlf_model.Uam
module Sync = Rtlf_sim.Sync
module Simulator = Rtlf_sim.Simulator

let golden_result () =
  let tasks =
    [
      Task.make ~id:0
        ~tuf:(Tuf.step ~height:10.0 ~c:90_000)
        ~arrival:(Uam.periodic ~period:100_000)
        ~exec:20_000
        ~accesses:[ (0, 5_000) ]
        ();
      Task.make ~id:1
        ~tuf:(Tuf.step ~height:5.0 ~c:90_000)
        ~arrival:(Uam.periodic ~period:100_000)
        ~exec:15_000
        ~accesses:[ (0, 5_000); (1, 3_000) ]
        ();
    ]
  in
  Simulator.run
    (Simulator.config ~tasks
       ~sync:(Sync.Lock_based { overhead = 2_000 })
       ~sched:Simulator.Rua ~horizon:300_000 ~seed:7 ~sched_base:200
       ~sched_per_op:25 ~trace:true ())

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let res = golden_result () in
  Rtlf_obs.Chrome_trace.write_file
    ~path:(Filename.concat dir "trace_small.json")
    res.Simulator.trace;
  Rtlf_obs.Csv_export.write_file
    ~path:(Filename.concat dir "trace_small.csv")
    res.Simulator.trace;
  let doc = M1_grid.export_document in
  Out_channel.with_open_bin (Filename.concat dir "export_digests.json")
    (fun oc ->
      output_string oc
        (M1_grid.to_string doc
           (List.map
              (fun (label, cfg) ->
                (label, M1_grid.export_digests (Simulator.run cfg)))
              doc.grid)));
  Printf.printf "wrote golden files to %s\n" dir
