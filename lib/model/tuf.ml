type t =
  | Step of { height : float; c : int }
  | Linear of { u0 : float; c : int }
  | Parabolic of { u0 : float; c : int }
  | Piecewise of { points : (int * float) array; c : int }

let step ~height ~c =
  if c <= 0 then invalid_arg "Tuf.step: c must be positive";
  if height < 0.0 then invalid_arg "Tuf.step: negative height";
  Step { height; c }

let linear ~u0 ~c =
  if c <= 0 then invalid_arg "Tuf.linear: c must be positive";
  if u0 < 0.0 then invalid_arg "Tuf.linear: negative u0";
  Linear { u0; c }

let parabolic ~u0 ~c =
  if c <= 0 then invalid_arg "Tuf.parabolic: c must be positive";
  if u0 < 0.0 then invalid_arg "Tuf.parabolic: negative u0";
  Parabolic { u0; c }

let piecewise ~points ~c =
  if c <= 0 then invalid_arg "Tuf.piecewise: c must be positive";
  let n = Array.length points in
  if n = 0 then invalid_arg "Tuf.piecewise: empty points";
  if fst points.(0) <> 0 then
    invalid_arg "Tuf.piecewise: first point must be at time 0";
  for i = 0 to n - 1 do
    if snd points.(i) < 0.0 then
      invalid_arg "Tuf.piecewise: negative utility";
    if i > 0 && fst points.(i) <= fst points.(i - 1) then
      invalid_arg "Tuf.piecewise: times must strictly increase"
  done;
  Piecewise { points; c }

let critical_time = function
  | Step { c; _ } | Linear { c; _ } | Parabolic { c; _ } | Piecewise { c; _ }
    -> c

(* Index of the last point at or before [at], searching from [i]. *)
let rec last_point points i at =
  if i + 1 < Array.length points && fst points.(i + 1) <= at then
    last_point points (i + 1) at
  else i

(* Linear between neighbours; the value holds flat after the last point
   until the critical time. Inlined, like [utility], so that the result
   stays unboxed in [utility_into]. *)
let[@inline] interp points c at =
  let n = Array.length points in
  let i = last_point points 0 at in
  let t0, u0 = points.(i) in
  if i + 1 >= n then u0
  else
    let t1, u1 = points.(i + 1) in
    let t1 = Int.min t1 c in
    if t1 <= t0 then u0
    else
      let frac = float_of_int (at - t0) /. float_of_int (t1 - t0) in
      u0 +. (frac *. (u1 -. u0))

let[@inline] utility f ~at =
  let at = Int.max at 0 in
  let c = critical_time f in
  if at >= c then 0.0
  else
    match f with
    | Step { height; _ } -> height
    | Linear { u0; c } ->
      u0 *. (1.0 -. (float_of_int at /. float_of_int c))
    | Parabolic { u0; c } ->
      let x = float_of_int at /. float_of_int c in
      u0 *. (1.0 -. (x *. x))
    | Piecewise { points; c } -> interp points c at

let utility_into f ~at dst i = dst.(i) <- utility f ~at

let initial_utility f = utility f ~at:0

let max_utility = function
  | Step { height; _ } -> height
  | Linear { u0; _ } | Parabolic { u0; _ } -> u0
  | Piecewise { points; c } ->
    Array.fold_left
      (fun acc (t, u) -> if t < c then Stdlib.max acc u else acc)
      0.0 points

let is_non_increasing = function
  | Step _ | Linear _ | Parabolic _ -> true
  | Piecewise { points; _ } ->
    let ok = ref true in
    for i = 1 to Array.length points - 1 do
      if snd points.(i) > snd points.(i - 1) then ok := false
    done;
    !ok

let scale f k =
  if k < 0.0 then invalid_arg "Tuf.scale: negative factor";
  match f with
  | Step { height; c } -> Step { height = height *. k; c }
  | Linear { u0; c } -> Linear { u0 = u0 *. k; c }
  | Parabolic { u0; c } -> Parabolic { u0 = u0 *. k; c }
  | Piecewise { points; c } ->
    Piecewise { points = Array.map (fun (t, u) -> (t, u *. k)) points; c }
