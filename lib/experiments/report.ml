module Stats = Rtlf_engine.Stats

let section fmt title =
  let bar = String.make (String.length title + 8) '=' in
  Format.fprintf fmt "@.%s@.=== %s ===@.%s@." bar title bar

let subsection fmt title = Format.fprintf fmt "@.--- %s ---@." title

let table fmt ~header ~rows =
  let ncols = List.length header in
  let pad row =
    let len = List.length row in
    if len >= ncols then row
    else row @ List.init (ncols - len) (fun _ -> "")
  in
  let rows = List.map pad rows in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri
      (fun i cell ->
        if i < ncols && String.length cell > widths.(i) then
          widths.(i) <- String.length cell)
      row
  in
  measure header;
  List.iter measure rows;
  let print_row row =
    List.iteri
      (fun i cell ->
        if i < ncols then
          Format.fprintf fmt "%s%s  " cell
            (String.make (widths.(i) - String.length cell) ' '))
      row;
    Format.pp_print_newline fmt ()
  in
  print_row header;
  print_row
    (List.init ncols (fun i -> String.make widths.(i) '-'));
  List.iter print_row rows

let f2 v = Printf.sprintf "%.2f" v
let pct v = Printf.sprintf "%.1f%%" (100.0 *. v)
let ns_us v = Printf.sprintf "%.2fus" (v /. 1000.0)

let with_ci (s : Stats.summary) fmt_mean =
  if s.Stats.n = 0 then "-"
  else if Float.is_nan s.Stats.ci95 || s.Stats.n < 2 then fmt_mean s.Stats.mean
  else Printf.sprintf "%s +/- %s" (fmt_mean s.Stats.mean) (fmt_mean s.Stats.ci95)

let histogram fmt ~title (h : Stats.histogram) =
  Format.fprintf fmt "%s: %a@." title Stats.pp_histogram h

let contention fmt profile =
  let module C = Rtlf_sim.Contention in
  let active =
    Array.to_list profile |> List.filter (fun c -> not (C.is_quiet c))
  in
  if active = [] then
    Format.fprintf fmt "no shared-object activity recorded@."
  else
    table fmt
      ~header:
        [ "object"; "acquires"; "conflicts"; "retries"; "blocked";
          "max-queue" ]
      ~rows:
        (List.map
           (fun (c : C.t) ->
             [
               Printf.sprintf "o%d" c.C.obj;
               string_of_int c.C.acquires;
               string_of_int c.C.conflicts;
               string_of_int c.C.retries;
               ns_us (float_of_int c.C.blocked_ns);
               string_of_int c.C.max_queue_depth;
             ])
           active)
