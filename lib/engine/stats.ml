type summary = {
  n : int;
  mean : float;
  stddev : float;
  ci95 : float;
  min : float;
  max : float;
}

(* All fields are floats, the count included (exact up to 2⁵³), so the
   record is stored flat and [add] boxes nothing. *)
type t = {
  mutable n : float;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () =
  { n = 0.0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

let[@inline] add acc x =
  acc.n <- acc.n +. 1.0;
  let delta = x -. acc.mean in
  acc.mean <- acc.mean +. (delta /. acc.n);
  acc.m2 <- acc.m2 +. (delta *. (x -. acc.mean));
  if x < acc.min then acc.min <- x;
  if x > acc.max then acc.max <- x

let count acc = int_of_float acc.n

(* 1.96 = z-score of the two-sided 95 % interval under the normal
   approximation; adequate for the paper's thousands-of-samples runs. *)
let z95 = 1.96

let summary acc =
  if acc.n = 0.0 then
    { n = 0; mean = nan; stddev = nan; ci95 = nan; min = nan; max = nan }
  else
    let variance = if acc.n < 2.0 then 0.0 else acc.m2 /. (acc.n -. 1.0) in
    let stddev = sqrt variance in
    let ci95 = z95 *. stddev /. sqrt acc.n in
    {
      n = count acc;
      mean = acc.mean;
      stddev;
      ci95;
      min = acc.min;
      max = acc.max;
    }

let of_list xs =
  let acc = create () in
  List.iter (add acc) xs;
  summary acc

(* A loop, not [Array.iter]: the closure would box every sample. *)
let of_array xs =
  let acc = create () in
  for i = 0 to Array.length xs - 1 do
    add acc xs.(i)
  done;
  summary acc

(* NaN samples poison order statistics: polymorphic [compare] gives an
   unspecified sort order in their presence, and any interpolation with
   a NaN endpoint is NaN. Percentiles and histograms are therefore
   computed over the non-NaN subset only, and sorting uses
   [Float.compare], which is total. *)
let drop_nans xs =
  if Array.exists Float.is_nan xs then
    Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list xs))
  else xs

(* Float-specialised port of Stdlib's [Array.sort] (a ternary heap
   sort), so the result is the very permutation [Array.sort
   Float.compare] produces — down to the order of [-0.0] and [0.0],
   which compare equal. The polymorphic version boxes every float it
   hands to the comparison; this one reads the flat array directly.
   [fcmp] is [Float.compare]: NaN sorts below everything else. It and
   [maxson] must be inlined: called, they box both floats they are
   passed, on every comparison. *)
let[@inline] fcmp (x : float) (y : float) =
  if x < y then -1
  else if x > y then 1
  else if x = y then 0
  else Bool.to_int (Float.is_nan y) - Bool.to_int (Float.is_nan x)

(* Index of the largest of [i]'s three sons in the heap prefix [0, l),
   or -1 when [i] has none (Stdlib's [Bottom i]). *)
let[@inline] maxson (a : float array) l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if fcmp a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
    if fcmp a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
  end
  else if i31 + 1 < l && fcmp a.(i31) a.(i31 + 1) < 0 then i31 + 1
  else if i31 < l then i31
  else -1

(* The sift steps are loops over an index, not recursive functions: a
   float passed to a call is boxed, and [e] moves through every step.
   Each one writes exactly where Stdlib's recursive version does. *)
let[@inline] trickle (a : float array) l i e =
  let i = ref i and j = ref (maxson a l i) in
  while !j >= 0 && fcmp a.(!j) e > 0 do
    a.(!i) <- a.(!j);
    i := !j;
    j := maxson a l !j
  done;
  a.(!i) <- e

let[@inline] bubble (a : float array) l i =
  let i = ref i and j = ref (maxson a l i) in
  while !j >= 0 do
    a.(!i) <- a.(!j);
    i := !j;
    j := maxson a l !j
  done;
  !i

let[@inline] trickleup (a : float array) i e =
  let i = ref i in
  while !i > 0 && fcmp a.((!i - 1) / 3) e < 0 do
    let father = (!i - 1) / 3 in
    a.(!i) <- a.(father);
    i := father
  done;
  a.(!i) <- e

let sort_floats (a : float array) =
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle a l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup a (bubble a i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

(* [sorted] is non-empty, NaN-free and ascending. *)
let percentile_sorted sorted ~p =
  let n = Array.length sorted in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let percentile xs ~p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty array";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let kept = drop_nans xs in
  if Array.length kept = 0 then
    invalid_arg "Stats.percentile: no non-NaN samples";
  let sorted = if kept == xs then Array.copy kept else kept in
  sort_floats sorted;
  percentile_sorted sorted ~p

let percentile_opt xs ~p =
  if Array.exists (fun x -> not (Float.is_nan x)) xs then
    Some (percentile xs ~p)
  else None

let mean xs =
  match xs with
  | [] -> nan
  | _ ->
    let total = List.fold_left ( +. ) 0.0 xs in
    total /. float_of_int (List.length xs)

(* --- histograms ----------------------------------------------------- *)

type histogram = {
  n : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
  bucket_lo : float;
  bucket_width : float;
  buckets : int array;
}

let empty_histogram =
  {
    n = 0;
    mean = nan;
    min = nan;
    max = nan;
    p50 = nan;
    p90 = nan;
    p99 = nan;
    bucket_lo = nan;
    bucket_width = nan;
    buckets = [||];
  }

let histogram ?(bins = 10) xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  let xs = drop_nans xs in
  let n = Array.length xs in
  if n = 0 then empty_histogram
  else
    let s = of_array xs in
    let sorted = Array.copy xs in
    sort_floats sorted;
    let q p = percentile_sorted sorted ~p in
    let lo = s.min in
    let width =
      let span = s.max -. lo in
      if span <= 0.0 then 1.0 else span /. float_of_int bins
    in
    let buckets = Array.make bins 0 in
    for k = 0 to n - 1 do
      let i = int_of_float ((xs.(k) -. lo) /. width) in
      let i = if i < 0 then 0 else if i >= bins then bins - 1 else i in
      buckets.(i) <- buckets.(i) + 1
    done;
    {
      n;
      mean = s.mean;
      min = lo;
      max = s.max;
      p50 = q 50.0;
      p90 = q 90.0;
      p99 = q 99.0;
      bucket_lo = lo;
      bucket_width = width;
      buckets;
    }

(* The widest bucket always renders [bar_width] hashes; the others
   scale linearly, so the plot's width is fixed regardless of counts. *)
let bar_width = 32

let pp_histogram fmt h =
  if h.n = 0 then Format.pp_print_string fmt "(no samples)"
  else begin
    Format.fprintf fmt "n=%d mean=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g"
      h.n h.mean h.p50 h.p90 h.p99 h.max;
    let peak = Array.fold_left max 1 h.buckets in
    Array.iteri
      (fun i c ->
        let lo = h.bucket_lo +. (float_of_int i *. h.bucket_width) in
        Format.fprintf fmt "@.[%10.4g, %10.4g) %7d %s" lo
          (lo +. h.bucket_width) c
          (String.make (c * bar_width / peak) '#'))
      h.buckets
  end

let pp_summary fmt (s : summary) =
  Format.fprintf fmt "%.4g ± %.2g (n=%d)" s.mean s.ci95 s.n

(* --- P² streaming quantile estimation -------------------------------- *)

module P2 = struct
  (* Jain & Chlamtac's P² algorithm: one quantile estimated from five
     markers whose heights are adjusted piecewise-parabolically as
     samples stream past — O(1) memory at any arrival volume, which is
     what lets the engine keep tail statistics for 10⁵–10⁶ jobs without
     retaining samples. The first five (non-NaN) observations are kept
     exactly; until then [quantile] answers from a sort of that prefix,
     so tiny-n behaviour matches the batch oracle. *)

  type t = {
    p : float;
    q : float array;  (* marker heights *)
    pos : int array;  (* actual marker positions, 1-based *)
    np : float array; (* desired marker positions *)
    dn : float array; (* desired-position increments per sample *)
    mutable count : int;
  }

  let create ~p =
    if not (p > 0.0 && p < 1.0) then
      invalid_arg "Stats.P2.create: need 0 < p < 1";
    {
      p;
      q = Array.make 5 0.0;
      pos = [| 1; 2; 3; 4; 5 |];
      np = [| 1.0; 1.0 +. (2.0 *. p); 1.0 +. (4.0 *. p);
              3.0 +. (2.0 *. p); 5.0 |];
      dn = [| 0.0; p /. 2.0; p; (1.0 +. p) /. 2.0; 1.0 |];
      count = 0;
    }

  let count t = t.count

  (* No local closure (say, a [float_of_int] alias): the compiler would
     then not inline it, and the call would box its argument and
     result. *)
  let[@inline] parabolic t i d =
    let q = t.q and n = t.pos in
    q.(i)
    +. d
       /. float_of_int (n.(i + 1) - n.(i - 1))
       *. ((float_of_int (n.(i) - n.(i - 1)) +. d)
           *. (q.(i + 1) -. q.(i))
           /. float_of_int (n.(i + 1) - n.(i))
          +. (float_of_int (n.(i + 1) - n.(i)) -. d)
             *. (q.(i) -. q.(i - 1))
             /. float_of_int (n.(i) - n.(i - 1)))

  let[@inline] linear t i s =
    t.q.(i)
    +. float_of_int s
       *. (t.q.(i + s) -. t.q.(i))
       /. float_of_int (t.pos.(i + s) - t.pos.(i))

  let add t x =
    if not (Float.is_nan x) then begin
      if t.count < 5 then begin
        t.q.(t.count) <- x;
        t.count <- t.count + 1;
        if t.count = 5 then sort_floats t.q
      end
      else begin
        (* Locate the marker cell and clamp the extremes. *)
        let k =
          if x < t.q.(0) then begin
            t.q.(0) <- x;
            0
          end
          else if x >= t.q.(4) then begin
            t.q.(4) <- x;
            3
          end
          else begin
            let k = ref 0 in
            for i = 1 to 3 do
              if t.q.(i) <= x then k := i
            done;
            !k
          end
        in
        for i = k + 1 to 4 do
          t.pos.(i) <- t.pos.(i) + 1
        done;
        for i = 0 to 4 do
          t.np.(i) <- t.np.(i) +. t.dn.(i)
        done;
        (* Nudge interior markers towards their desired positions. *)
        for i = 1 to 3 do
          let d = t.np.(i) -. float_of_int t.pos.(i) in
          if
            (d >= 1.0 && t.pos.(i + 1) - t.pos.(i) > 1)
            || (d <= -1.0 && t.pos.(i - 1) - t.pos.(i) < -1)
          then begin
            let s = if d >= 0.0 then 1 else -1 in
            let qp = parabolic t i (float_of_int s) in
            if t.q.(i - 1) < qp && qp < t.q.(i + 1) then t.q.(i) <- qp
            else t.q.(i) <- linear t i s;
            t.pos.(i) <- t.pos.(i) + s
          end
        done;
        t.count <- t.count + 1
      end
    end

  let quantile t =
    if t.count = 0 then nan
    else if t.count <= 5 then begin
      (* Exact over the retained prefix, same interpolation as
         [percentile]. *)
      let sorted = Array.sub t.q 0 t.count in
      sort_floats sorted;
      let rank = t.p *. float_of_int (t.count - 1) in
      let lo = int_of_float (floor rank) in
      let hi = int_of_float (ceil rank) in
      if lo = hi then sorted.(lo)
      else
        let frac = rank -. float_of_int lo in
        sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
    end
    else t.q.(2)

  (* --- the standard four-tail tracker -------------------------------- *)

  type tails = { n : int; p50 : float; p90 : float; p99 : float; p999 : float }

  type tracker = { e50 : t; e90 : t; e99 : t; e999 : t }

  let tracker () =
    {
      e50 = create ~p:0.5;
      e90 = create ~p:0.9;
      e99 = create ~p:0.99;
      e999 = create ~p:0.999;
    }

  let[@inline] track tr x =
    add tr.e50 x;
    add tr.e90 x;
    add tr.e99 x;
    add tr.e999 x

  let tails tr =
    {
      n = tr.e50.count;
      p50 = quantile tr.e50;
      p90 = quantile tr.e90;
      p99 = quantile tr.e99;
      p999 = quantile tr.e999;
    }

  let empty_tails = { n = 0; p50 = nan; p90 = nan; p99 = nan; p999 = nan }
end
