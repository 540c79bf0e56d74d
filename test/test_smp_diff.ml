(* The digest pins. The m = 1 pin: [Simulator.run] at [cores = 1] must
   reproduce, field group for field group and trace entry for trace
   entry, the digests in golden/m1_digests.json across the fixed grid
   of [M1_grid]: seeded scenes x sync discipline x scheduler x dispatch
   policy, the adversarial retry rule, and the nested/deadlock scene.
   The digests were generated once by the frozen pre-SMP single-CPU
   engine, so this is the pin that lets the SMP engine evolve without
   silently changing the single-CPU semantics every published figure
   rests on. The smp pin does the same for the random and nested
   configs at 2 and 4 cores against golden/smp_digests.json, so a
   dispatcher refactor cannot change m-core results unnoticed.

   The grids are fixed-seed: this suite ignores RTLF_SEED. *)

module Simulator = Rtlf_sim.Simulator
module Json = Rtlf_obs.Json

(* From [dune runtest] (cwd test/) or [dune exec] at the repo root. *)
let file (doc : M1_grid.document) =
  let name = "golden/" ^ doc.name ^ "_digests.json" in
  Json.of_string
    (In_channel.with_open_bin
       (Option.value ~default:name
          (List.find_opt Sys.file_exists [ name; "test/" ^ name ]))
       In_channel.input_all)

let digests doc =
  lazy
    (match M1_grid.check_document doc (file doc) with
    | Ok d -> d
    | Error e -> Alcotest.fail e)

let m1_digests = digests M1_grid.m1_document
let smp_digests = digests M1_grid.smp_document

(* Each diverging config is named with the field groups whose digests
   differ, first group first, so a divergence pinpoints the broken
   account rather than "results differ". *)
let reproduces digests configs () =
  let diverged =
    M1_grid.diverging M1_grid.digests (Lazy.force digests) configs
  in
  if diverged <> [] then
    Alcotest.failf
      "%d of %d configs diverge from the digests (differing field \
       groups):\n%s"
      (List.length diverged) (List.length configs)
      (String.concat "\n" diverged)

(* --- the document's validator ------------------------------------------ *)

let rejects ?(doc = M1_grid.m1_document) expected edit () =
  let json =
    match file doc with
    | Json.Obj fields -> Json.Obj (edit fields)
    | _ -> Alcotest.fail "digest document is not an object"
  in
  match M1_grid.check_document doc json with
  | Ok _ -> Alcotest.fail "bad document accepted"
  | Error e -> Alcotest.(check string) "named error" expected e

let map_configs f =
  List.map (function
    | "configs", Json.Obj cs -> ("configs", Json.Obj (f cs))
    | field -> field)

let () =
  let first = fst (List.hd M1_grid.all) in
  let first_smp = fst (List.hd M1_grid.smp) in
  Test_support.run "smp_diff"
    [
      ( "differential",
        [
          Alcotest.test_case
            "cores=1 reproduces the m=1 digests on every sync x sched x \
             dispatch"
            `Quick (reproduces m1_digests M1_grid.random);
          Alcotest.test_case
            "cores=1 bit-identical under the adversarial retry rule" `Quick
            (reproduces m1_digests M1_grid.adversarial);
        ] );
      ( "deterministic",
        [
          Alcotest.test_case "nested + deadlock scene" `Quick
            (reproduces m1_digests M1_grid.nested);
        ] );
      ( "smp",
        [
          Alcotest.test_case
            "cores=2,4 reproduce the smp digests on every sync x sched x \
             dispatch and the nested scene"
            `Quick (reproduces smp_digests M1_grid.smp);
        ] );
      ( "document",
        [
          Alcotest.test_case "missing schema tag" `Quick
            (rejects "m1 digests: no schema tag" (List.remove_assoc "schema"));
          Alcotest.test_case "wrong schema tag" `Quick
            (rejects
               "m1 digests: schema tag \"rtlf-m1-digests-v0\", expected \
                \"rtlf-m1-digests-v1\""
               (List.map (function
                 | "schema", _ -> ("schema", Json.Str "rtlf-m1-digests-v0")
                 | field -> field)));
          Alcotest.test_case "grid config with no digest" `Quick
            (rejects
               ("m1 digests: grid config " ^ first ^ " has no digest")
               (map_configs (List.remove_assoc first)));
          Alcotest.test_case "digest with no grid config" `Quick
            (rejects
               "m1 digests: digest spec99/ideal has no grid config"
               (map_configs (fun cs -> cs @ [ ("spec99/ideal", Json.Obj []) ])));
          Alcotest.test_case "smp wrong schema tag" `Quick
            (rejects ~doc:M1_grid.smp_document
               "smp digests: schema tag \"rtlf-m1-digests-v1\", expected \
                \"rtlf-smp-digests-v1\""
               (List.map (function
                 | "schema", _ -> ("schema", Json.Str "rtlf-m1-digests-v1")
                 | field -> field)));
          Alcotest.test_case "smp grid config with no digest" `Quick
            (rejects ~doc:M1_grid.smp_document
               ("smp digests: grid config " ^ first_smp ^ " has no digest")
               (map_configs (List.remove_assoc first_smp)));
        ] );
    ]
