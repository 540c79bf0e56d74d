(* Public facade of the checker: name registry and entry points used by
   the [rtlf check] CLI subcommand and the test suite. *)

let structures () =
  Scenario.all
  |> List.filter (fun d -> not (Scenario.demo d))
  |> List.map Scenario.name

let demos () =
  Scenario.all |> List.filter Scenario.demo |> List.map Scenario.name

let describe name =
  Option.map Scenario.descr (Scenario.find name)

let default_seed = 42

let run_one ?(fast = false) ?(seed = default_seed) name =
  match Scenario.find name with
  | None ->
    Error
      (Printf.sprintf "unknown structure %S (known: %s)" name
         (String.concat ", " (structures () @ demos ())))
  | Some def -> Ok (Scenario.run def ~fast ~seed)
