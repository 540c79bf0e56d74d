(* --compare: parent against change, per workload and end-to-end metric.

   Documents alternate parent, change, parent, change, ... Each side's
   samples are the per-pass values of every document on that side; pass
   k of a parent document is paired with pass k of the change document
   that follows it. The verdict applies the choosing-metrics rule: a
   gain needs at least 9/10 of pairs won and a median difference larger
   than the parent's interquartile spread. *)

module Json = Rtlf_obs.Json

type bound = {
  name : string;
  unit : string;
  lower_better : bool;
  bound : float;
}

let fail fmt = Printf.ksprintf failwith fmt
let read_file path = In_channel.with_open_bin path In_channel.input_all

let member k j =
  match Json.member k j with Some v -> v | None -> fail "missing field %S" k

let str = function Json.Str s -> s | _ -> fail "expected a string"

let num = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> fail "expected a number"

let list = function Json.List l -> l | _ -> fail "expected a list"

let bounds bench_json =
  List.map
    (fun m ->
      {
        name = str (member "name" m);
        unit = str (member "unit" m);
        lower_better = str (member "better" m) = "lower";
        bound = num (member "bound" m);
      })
    (list (member "end_to_end" bench_json))

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] (exclusive
   method) gives them, so spreads read the same as any script's. *)
let quartiles xs =
  let d = Array.of_list xs in
  Array.sort compare d;
  let ld = Array.length d in
  if ld = 1 then (d.(0), d.(0), d.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)
  end

let workloads doc = list (member "workloads" doc)

let find_workload doc name =
  List.find_opt (fun w -> str (member "name" w) = name) (workloads doc)

let samples w metric =
  match
    List.find_opt
      (fun m -> str (member "name" m) = metric)
      (list (member "metrics" w))
  with
  | Some m -> List.map num (list (member "samples" m))
  | None -> []

let rec pairs = function
  | a :: b :: rest -> (a, b) :: pairs rest
  | [] -> []
  | [ _ ] -> fail "--compare needs parent/change documents in pairs"

type verdict = Gain | Within | Worse | Unresolved

let verdict_name = function
  | Gain -> "gain"
  | Within -> "within bound"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let better b x y = if b.lower_better then x < y else x > y

let judge b ~parent ~change ~won ~paired =
  let pq1, pm, pq3 = quartiles parent and _, cm, _ = quartiles change in
  let iqr = pq3 -. pq1 in
  let worse_by =
    (if b.lower_better then cm -. pm else pm -. cm) /. Float.abs pm
  in
  let all_better =
    List.for_all (fun c -> List.for_all (better b c) parent) change
  in
  if
    paired > 0
    && float_of_int won >= 0.9 *. float_of_int paired
    && better b cm pm
    && Float.abs (cm -. pm) > iqr
  then Gain
  else if iqr /. Float.abs pm > b.bound && not all_better then Unresolved
  else if worse_by > b.bound then Worse
  else Within

let run ~bench_json files =
  let bounds = bounds (Json.of_string (read_file bench_json)) in
  let docs = pairs (List.map (fun f -> Json.of_string (read_file f)) files) in
  let names =
    match docs with
    | (p, _) :: _ -> List.map (fun w -> str (member "name" w)) (workloads p)
    | [] -> fail "--compare needs at least one parent/change pair"
  in
  let worse = ref 0 in
  Printf.printf "%-13s %-13s %-34s %-34s %8s %6s  %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "change" "won" "verdict";
  List.iter
    (fun wname ->
      List.iter
        (fun b ->
          let side pick =
            List.map
              (fun pair ->
                match find_workload (pick pair) wname with
                | Some w -> samples w b.name
                | None -> [])
              docs
          in
          let ps = side fst and cs = side snd in
          let won = ref 0 and paired = ref 0 in
          let rec pair p c =
            match (p, c) with
            | x :: p, y :: c ->
              incr paired;
              if better b y x then incr won;
              pair p c
            | _ -> ()
          in
          List.iter2 pair ps cs;
          let parent = List.concat ps and change = List.concat cs in
          if parent <> [] && change <> [] then begin
            let show xs =
              let q1, m, q3 = quartiles xs in
              Printf.sprintf "%.6g [%.6g, %.6g] %s" m q1 q3 b.unit
            in
            let _, pm, _ = quartiles parent and _, cm, _ = quartiles change in
            let v = judge b ~parent ~change ~won:!won ~paired:!paired in
            if v = Worse then incr worse;
            Printf.printf "%-13s %-13s %-34s %-34s %+7.2f%% %3d/%-2d  %s\n"
              wname b.name (show parent) (show change)
              ((cm -. pm) /. Float.abs pm *. 100.0)
              !won !paired (verdict_name v)
          end)
        bounds)
    names;
  (* Simulated statistics must be bit-identical between documents of the
     same seed, whatever the speed. *)
  List.iter
    (fun (p, c) ->
      if num (member "seed" p) = num (member "seed" c) then
        List.iter
          (fun wname ->
            match (find_workload p wname, find_workload c wname) with
            | Some a, Some b ->
              let same = member "digests" a = member "digests" b in
              Printf.printf "%-13s digests %s (seed %.0f)\n" wname
                (if same then "identical" else "DIFFER")
                (num (member "seed" p));
              if not same then incr worse
            | _ -> ())
          names)
    docs;
  if !worse > 0 then exit 1
