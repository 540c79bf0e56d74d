module Prng = Rtlf_engine.Prng

type t = { l : int; a : int; w : int }

let make ~l ~a ~w =
  if w <= 0 then invalid_arg "Uam.make: w must be positive";
  if a < 1 then invalid_arg "Uam.make: a must be at least 1";
  if l < 0 || l > a then invalid_arg "Uam.make: need 0 <= l <= a";
  { l; a; w }

let periodic ~period = make ~l:1 ~a:1 ~w:period
let bursty ~a ~w = make ~l:1 ~a ~w

let ceil_div num den = (num + den - 1) / den

let max_arrivals_in law ~span =
  if span <= 0 then law.a
  else law.a * (ceil_div span law.w + 1)

let min_arrivals_in law ~span =
  if span <= 0 then 0 else law.l * (span / law.w)

(* Next arrival must be
   - at or after [times[n-a] + w]  (max side), and
   - at or before [times[n-l] + w] (min side, l >= 1),
   where times is the history so far. The cursor keeps a circular
   buffer of the last [a] arrival times and draws one arrival ahead. *)
type cursor = {
  law : t;
  g : Prng.t;
  start : int;
  horizon : int;
  hist : int array;
  mutable count : int;
  mutable last : int;
  mutable pending : int; (* [max_int] once exhausted *)
}

(* Time of the arrival [k] places before the next one (1-based). *)
let nth_back c k = c.hist.((c.count - k) mod c.law.a)

let draw c =
  let law = c.law in
  let lo =
    (* Never travel back in time: arrivals may coincide with the
       previous one but not precede it. *)
    Int.max c.last
      (if c.count >= law.a then nth_back c law.a + law.w else c.start)
  in
  let hi_min =
    if law.l >= 1 && c.count >= law.l then nth_back c law.l + law.w
    else if c.count = 0 then c.start + law.w - 1
    else max_int
  in
  let hi = Int.min hi_min (c.horizon - 1) in
  if lo >= c.horizon || hi < lo then c.pending <- max_int
  else begin
    let time = Prng.int_in c.g ~lo ~hi in
    c.hist.(c.count mod law.a) <- time;
    c.last <- time;
    c.count <- c.count + 1;
    c.pending <- time
  end

let cursor law g ~start ~horizon =
  let c =
    {
      law;
      g;
      start;
      horizon;
      hist = Array.make law.a start;
      count = 0;
      last = start;
      pending = max_int;
    }
  in
  if horizon > start then draw c;
  c

let peek c = c.pending

let advance c = if c.pending <> max_int then draw c

let generate law g ~start ~horizon =
  let c = cursor law g ~start ~horizon in
  let acc = ref [] in
  while c.pending <> max_int do
    acc := c.pending :: !acc;
    draw c
  done;
  List.rev !acc

let generate_worst_burst law ~start ~horizon =
  let rec windows t acc =
    if t >= horizon then List.rev acc
    else
      let burst = List.init law.a (fun _ -> t) in
      windows (t + law.w) (List.rev_append burst acc)
  in
  windows start []

let validate law trace =
  let arr = Array.of_list trace in
  let n = Array.length arr in
  let rec sorted i =
    if i >= n then true
    else if arr.(i) < arr.(i - 1) then false
    else sorted (i + 1)
  in
  if n > 1 && not (sorted 1) then Error "trace is not sorted"
  else begin
    let err = ref None in
    (* Max side: t[k + a] - t[k] >= w. *)
    let k = ref 0 in
    while !err = None && !k + law.a < n do
      if arr.(!k + law.a) - arr.(!k) < law.w then
        err :=
          Some
            (Printf.sprintf
               "max side violated: arrivals %d..%d span %d < w=%d" !k
               (!k + law.a)
               (arr.(!k + law.a) - arr.(!k))
               law.w);
      incr k
    done;
    (* Min side: t[k + l] - t[k] <= w, for l >= 1. *)
    if !err = None && law.l >= 1 then begin
      let k = ref 0 in
      while !err = None && !k + law.l < n do
        if arr.(!k + law.l) - arr.(!k) > law.w then
          err :=
            Some
              (Printf.sprintf
                 "min side violated: arrivals %d..%d span %d > w=%d" !k
                 (!k + law.l)
                 (arr.(!k + law.l) - arr.(!k))
                 law.w);
        incr k
      done
    end;
    match !err with None -> Ok () | Some msg -> Error msg
  end
