(* Experiment-harness tests: fast-mode runs must reproduce the paper's
   qualitative shapes (who wins, direction of trends) and the analytic
   validations must hold. These are the repository's regression net for
   the headline results. *)

module Stats = Rtlf_engine.Stats
module E = Rtlf_experiments

let mode = E.Common.Fast

(* --- Figure 8: r >> s --------------------------------------------------- *)

let fig8 = lazy (E.Fig8.compute ~mode ())

let test_fig8_r_much_larger_than_s () =
  List.iter
    (fun (row : E.Fig8.row) ->
      let r = row.E.Fig8.r_ns.Stats.mean
      and s = row.E.Fig8.s_ns.Stats.mean in
      if r < 5.0 *. s then
        Alcotest.failf "at %d objects r=%.0f < 5*s=%.0f" row.E.Fig8.n_objects
          r s)
    (Lazy.force fig8)

let test_fig8_r_grows_with_objects () =
  let rows = Lazy.force fig8 in
  let first = List.nth rows 0 and last = List.nth rows (List.length rows - 1) in
  Alcotest.(check bool) "r grows" true
    (last.E.Fig8.r_ns.Stats.mean > first.E.Fig8.r_ns.Stats.mean)

let test_fig8_s_stays_flat () =
  let rows = Lazy.force fig8 in
  let means = List.map (fun r -> r.E.Fig8.s_ns.Stats.mean) rows in
  let mn = List.fold_left min infinity means in
  let mx = List.fold_left max 0.0 means in
  Alcotest.(check bool) "s within 2x across sweep" true (mx < 2.0 *. mn)

(* --- Figure 9: CML ordering ---------------------------------------------- *)

let fig9 = lazy (E.Fig9.compute ~mode ())

let test_fig9_ordering () =
  List.iter
    (fun (row : E.Fig9.row) ->
      Alcotest.(check bool) "lock-based <= lock-free" true
        (row.E.Fig9.lock_based <= row.E.Fig9.lock_free +. 0.05);
      Alcotest.(check bool) "lock-free <= ideal" true
        (row.E.Fig9.lock_free <= row.E.Fig9.ideal +. 0.05))
    (Lazy.force fig9)

let test_fig9_lock_based_improves_with_exec () =
  let rows = Lazy.force fig9 in
  let first = List.nth rows 0 and last = List.nth rows (List.length rows - 1) in
  Alcotest.(check bool) "CML rises with exec time" true
    (last.E.Fig9.lock_based > first.E.Fig9.lock_based)

(* --- Figures 10-13: AUR/CMR shapes ----------------------------------------- *)

let check_lock_free_dominates rows =
  List.iter
    (fun (row : E.Aur_objects.row) ->
      Alcotest.(check bool) "lock-free AUR >= lock-based" true
        (row.E.Aur_objects.lf_aur.Stats.mean
        >= row.E.Aur_objects.lb_aur.Stats.mean -. 0.02);
      Alcotest.(check bool) "lock-free CMR >= lock-based" true
        (row.E.Aur_objects.lf_cmr.Stats.mean
        >= row.E.Aur_objects.lb_cmr.Stats.mean -. 0.02))
    rows

let test_fig10_underload_lock_free_near_perfect () =
  let rows = E.Fig10.compute ~mode () in
  check_lock_free_dominates rows;
  List.iter
    (fun (row : E.Aur_objects.row) ->
      Alcotest.(check bool) "lock-free ~100% in underload" true
        (row.E.Aur_objects.lf_aur.Stats.mean > 0.95))
    rows

let test_fig12_overload_gap_widens () =
  let rows = E.Fig12.compute ~mode () in
  check_lock_free_dominates rows;
  (* Lock-based must collapse as objects increase. *)
  let first = List.nth rows 0 in
  let last = List.nth rows (List.length rows - 1) in
  Alcotest.(check bool) "lock-based decays with objects" true
    (last.E.Aur_objects.lb_aur.Stats.mean
    < first.E.Aur_objects.lb_aur.Stats.mean);
  (* And the paper's headline: a large lock-free advantage at the right
     end of the sweep. *)
  Alcotest.(check bool) "large advantage at 10 objects" true
    (last.E.Aur_objects.lf_aur.Stats.mean
     -. last.E.Aur_objects.lb_aur.Stats.mean
    > 0.25)

let test_fig13_heterogeneous_same_ordering () =
  check_lock_free_dominates (E.Fig13.compute ~mode ())

(* --- Figure 14: readers sweep ------------------------------------------------ *)

let test_fig14_ordering_and_load () =
  let rows = E.Fig14.compute ~mode () in
  List.iter
    (fun (row : E.Fig14.row) ->
      Alcotest.(check bool) "lock-free >= lock-based" true
        (row.E.Fig14.lf_aur.Stats.mean
        >= row.E.Fig14.lb_aur.Stats.mean -. 0.02))
    rows;
  (* AL rises across the sweep. *)
  let first = List.nth rows 0 and last = List.nth rows (List.length rows - 1) in
  Alcotest.(check bool) "load rises" true (last.E.Fig14.al > first.E.Fig14.al)

(* --- Theorem/lemma validations ------------------------------------------------ *)

let test_thm2_bound_holds () =
  Alcotest.(check bool) "bound respected" true
    (E.Thm2.holds (E.Thm2.compute ~mode ()))

let test_thm3_extremes_agree () =
  let rows = E.Thm3.compute ~mode () in
  (* At the smallest swept ratio, analytics and measurement both favour
     lock-free. *)
  match rows with
  | first :: _ ->
    Alcotest.(check bool) "analytic: lock-free wins at low s/r" true
      first.E.Thm3.predicted_lf_wins;
    Alcotest.(check bool) "measured: lock-free wins at low s/r" true
      (first.E.Thm3.measured_lf_ns < first.E.Thm3.measured_lb_ns)
  | [] -> Alcotest.fail "no rows"

let test_lem45_bands_hold () =
  Alcotest.(check bool) "measured AUR inside bands" true
    (E.Lem45.holds (E.Lem45.compute ~mode ()))

(* --- Figure 1, ablation, baselines ---------------------------------------------- *)

let test_fig1_shapes () =
  let curves = E.Fig1.compute () in
  Alcotest.(check int) "four shapes" 4 (List.length curves);
  List.iter
    (fun (curve : E.Fig1.curve) ->
      (* Every shape ends at zero utility at the critical time. *)
      let _, last = List.nth curve.E.Fig1.samples 10 in
      Alcotest.(check (float 1e-9)) (curve.E.Fig1.name ^ " zero at c") 0.0
        last)
    curves;
  (* The intercept shape rises then falls — the non-deadline case. *)
  let rising =
    List.find
      (fun c -> c.E.Fig1.name = "rising-then-falling (intercept)")
      curves
  in
  let at frac = List.assoc frac rising.E.Fig1.samples in
  Alcotest.(check bool) "rises" true (at 0.4 > at 0.0);
  Alcotest.(check bool) "falls" true (at 0.9 < at 0.5)

let test_ablation_retry_rule () =
  let rows = E.Ablation.retry_rule ~mode () in
  match rows with
  | [ realistic; adversarial ] ->
    Alcotest.(check bool) "adversary retries at least as much" true
      (adversarial.E.Ablation.retries_total
      >= realistic.E.Ablation.retries_total)
  | _ -> Alcotest.fail "expected two rows"

let test_ablation_overhead_monotone () =
  let rows = E.Ablation.overhead ~mode () in
  let first = List.nth rows 0 and last = List.nth rows (List.length rows - 1) in
  Alcotest.(check bool) "more overhead, lower CML" true
    (last.E.Ablation.cml_lock_free <= first.E.Ablation.cml_lock_free +. 0.05)

let test_baselines_ordering () =
  let rows = E.Baselines.compute ~mode () in
  let overloaded =
    List.filter (fun (r : E.Baselines.row) -> r.E.Baselines.al > 1.0) rows
  in
  Alcotest.(check bool) "has an overload point" true (overloaded <> []);
  List.iter
    (fun (r : E.Baselines.row) ->
      Alcotest.(check bool) "RUA-LF beats RUA-LB in overload" true
        (r.E.Baselines.rua_lf_aur >= r.E.Baselines.rua_lb_aur -. 0.02);
      Alcotest.(check bool) "RUA-LB beats EDF+PIP in overload" true
        (r.E.Baselines.rua_lb_aur >= r.E.Baselines.edf_pip_aur -. 0.02))
    overloaded

(* --- registry ------------------------------------------------------------------- *)

let test_registry_complete () =
  let names = List.map fst E.All.experiments in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " registered") true
        (List.mem expected names))
    [ "fig8"; "fig9"; "fig10"; "fig11"; "fig12"; "fig13"; "fig14";
      "thm2"; "thm3"; "lem45"; "ablation"; "baselines"; "fig1"; "smp" ]

(* --- smp ----------------------------------------------------------------------- *)

let test_smp_shape () =
  (* Two core counts keep the test quick; the full {1,2,4} sweep runs
     in the smp-smoke CI job. *)
  let rows = E.Smp.compute ~mode ~cores:[ 1; 2 ] () in
  (* m=1 has only global dispatch; m>1 both policies. *)
  Alcotest.(check int) "points" 3 (List.length rows);
  List.iter
    (fun (r : E.Smp.row) ->
      Alcotest.(check int) "all syncs present" (List.length E.Smp.syncs)
        (List.length r.E.Smp.cells);
      List.iter
        (fun (c : E.Smp.cell) ->
          let aur = c.E.Smp.aur.Rtlf_engine.Stats.mean in
          Alcotest.(check bool) "AUR in [0,1]" true (aur >= 0.0 && aur <= 1.0);
          if
            r.E.Smp.cores = 1
            || r.E.Smp.dispatch = Rtlf_sim.Simulator.Partitioned
          then
            Alcotest.(check (float 0.0)) "no migrations off global multicore"
              0.0 c.E.Smp.migrations)
        r.E.Smp.cells;
      (* The spin baselines land between lock-based and lock-free, as
         the cost model says they must: cheaper than a lock-manager
         round trip, dearer than a CAS validation. *)
      let mean name =
        let c =
          List.find (fun c -> c.E.Smp.sync_name = name) r.E.Smp.cells
        in
        c.E.Smp.aur.Rtlf_engine.Stats.mean
      in
      Alcotest.(check bool) "spin >= lock-based" true
        (mean "spin-ticket" >= mean "lock-based" -. 0.02);
      Alcotest.(check bool) "lock-free >= spin" true
        (mean "lock-free" >= mean "spin-ticket" -. 0.02);
      (* Non-degenerate: the load scaled with m keeps the spin curve
         off both the 100 % ceiling and the floor, at every core
         count. *)
      Alcotest.(check bool) "spin AUR non-degenerate" true
        (mean "spin-ticket" > 0.005 && mean "spin-ticket" < 0.9999))
    rows

let () =
  Test_support.run "experiments"
    [
      ( "fig8",
        [
          Alcotest.test_case "r >> s" `Slow test_fig8_r_much_larger_than_s;
          Alcotest.test_case "r grows with objects" `Slow
            test_fig8_r_grows_with_objects;
          Alcotest.test_case "s stays flat" `Slow test_fig8_s_stays_flat;
        ] );
      ( "fig9",
        [
          Alcotest.test_case "CML ordering" `Slow test_fig9_ordering;
          Alcotest.test_case "lock-based improves with exec" `Slow
            test_fig9_lock_based_improves_with_exec;
        ] );
      ( "fig10-13",
        [
          Alcotest.test_case "underload: lock-free near perfect" `Slow
            test_fig10_underload_lock_free_near_perfect;
          Alcotest.test_case "overload: gap widens" `Slow
            test_fig12_overload_gap_widens;
          Alcotest.test_case "heterogeneous ordering" `Slow
            test_fig13_heterogeneous_same_ordering;
        ] );
      ( "fig14",
        [ Alcotest.test_case "readers sweep" `Slow test_fig14_ordering_and_load ] );
      ( "analytics",
        [
          Alcotest.test_case "Theorem 2 holds" `Slow test_thm2_bound_holds;
          Alcotest.test_case "Theorem 3 extremes agree" `Slow
            test_thm3_extremes_agree;
          Alcotest.test_case "Lemmas 4/5 bands hold" `Slow
            test_lem45_bands_hold;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "Figure 1 shapes" `Quick test_fig1_shapes;
          Alcotest.test_case "ablation: retry rule" `Slow
            test_ablation_retry_rule;
          Alcotest.test_case "ablation: overhead monotone" `Slow
            test_ablation_overhead_monotone;
          Alcotest.test_case "baselines ordering" `Slow
            test_baselines_ordering;
        ] );
      ( "registry",
        [ Alcotest.test_case "all experiments registered" `Quick
            test_registry_complete ] );
      ( "smp",
        [ Alcotest.test_case "per-core sweep shape" `Slow test_smp_shape ] );
    ]
