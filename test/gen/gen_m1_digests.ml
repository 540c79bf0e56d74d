(* Regenerates the m = 1 pin's digests checked by test_smp_diff.ml.

   Usage: dune exec test/gen/gen_m1_digests.exe -- <output-file>

   The committed test/golden/m1_digests.json came from the frozen
   pre-SMP single-CPU engine; [Simulator.run] at [cores = 1] reproduces
   it byte for byte. Regenerate only for a deliberate change to the
   grid or the fingerprint, never to absorb a semantic change. *)

let () =
  let path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "m1_digests.json"
  in
  let run = Rtlf_sim.Simulator.run in
  let doc =
    M1_grid.to_string
      (List.map
         (fun (label, cfg) -> (label, M1_grid.digests (run cfg)))
         M1_grid.all)
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc doc);
  Printf.printf "wrote %d digests to %s\n" (List.length M1_grid.all) path
