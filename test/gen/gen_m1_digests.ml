(* Regenerates the digest pins checked by test_smp_diff.ml.

   Usage: dune exec test/gen/gen_m1_digests.exe -- [--smp] <output-file>

   Without --smp it writes the m = 1 document; the committed
   test/golden/m1_digests.json came from the frozen pre-SMP single-CPU
   engine, and [Simulator.run] at [cores = 1] reproduces it byte for
   byte. With --smp it writes the 2- and 4-core document
   test/golden/smp_digests.json. Regenerate only for a deliberate change
   to a grid, the fingerprint or the m-core semantics, never to absorb
   an unintended change. *)

let () =
  let doc, path =
    match List.tl (Array.to_list Sys.argv) with
    | [ "--smp"; path ] -> (M1_grid.smp_document, path)
    | [ "--smp" ] -> (M1_grid.smp_document, "smp_digests.json")
    | [ path ] -> (M1_grid.m1_document, path)
    | _ -> (M1_grid.m1_document, "m1_digests.json")
  in
  let text =
    M1_grid.to_string doc
      (List.map
         (fun (label, cfg) ->
           (label, M1_grid.digests (Rtlf_sim.Simulator.run cfg)))
         doc.grid)
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Printf.printf "wrote %d digests to %s\n" (List.length doc.grid) path
