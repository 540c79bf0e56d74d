type t =
  | Compute of int
  | Access of { obj : int; work : int; write : bool }
  | Lock of int
  | Unlock of int

let access ~obj ~work ?(write = true) () =
  if work < 0 then invalid_arg "Segment.access: negative work";
  Access { obj; work; write }

let span = function
  | Compute s -> s
  | Access { work; _ } -> work
  | Lock _ | Unlock _ -> 0

let total_span segs = List.fold_left (fun acc s -> acc + span s) 0 segs

let count_accesses segs =
  List.fold_left
    (fun acc -> function
      | Access _ -> acc + 1
      | Compute _ | Lock _ | Unlock _ -> acc)
    0 segs

let interleave_rw ~compute ~accesses =
  if compute < 0 then invalid_arg "Segment.interleave: negative compute";
  List.iter
    (fun (_, work, _) ->
      if work < 0 then invalid_arg "Segment.interleave: negative work")
    accesses;
  let m = List.length accesses in
  let slice = compute / (m + 1) in
  let first = compute - (slice * m) in
  let add_compute s acc = if s > 0 then Compute s :: acc else acc in
  let rec build accesses acc =
    match accesses with
    | [] -> List.rev acc
    | (obj, work, write) :: rest ->
      build rest (add_compute slice (Access { obj; work; write } :: acc))
  in
  build accesses (add_compute first [])

let interleave ~compute ~accesses ?(write = true) () =
  interleave_rw ~compute
    ~accesses:(List.map (fun (obj, work) -> (obj, work, write)) accesses)

let well_nested profile =
  let rec go held = function
    | [] ->
      if held = [] then Ok ()
      else
        Error
          (Printf.sprintf "profile ends holding %d object(s)"
             (List.length held))
    | Compute _ :: rest -> go held rest
    | Access { obj; _ } :: rest ->
      if List.mem obj held then
        Error (Printf.sprintf "flat access to held object %d" obj)
      else go held rest
    | Lock obj :: rest ->
      if List.mem obj held then
        Error (Printf.sprintf "object %d locked twice" obj)
      else go (obj :: held) rest
    | Unlock obj :: rest ->
      if List.mem obj held then
        go (List.filter (fun o -> o <> obj) held) rest
      else Error (Printf.sprintf "unlock of unheld object %d" obj)
  in
  go [] profile

let pp fmt = function
  | Compute s -> Format.fprintf fmt "compute(%dns)" s
  | Access { obj; work; write } ->
    Format.fprintf fmt "access(o%d,%dns,%s)" obj work
      (if write then "w" else "r")
  | Lock obj -> Format.fprintf fmt "lock(o%d)" obj
  | Unlock obj -> Format.fprintf fmt "unlock(o%d)" obj
