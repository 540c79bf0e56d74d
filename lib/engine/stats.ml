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

(* The [p]-th percentile of [n] ascending, NaN-free samples, [nth k]
   being the [k]-th smallest: linear interpolation between the closest
   ranks. *)
let percentile_ranked ~n ~nth ~p =
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then nth lo
  else
    let frac = rank -. float_of_int lo in
    let at_lo = nth lo in
    at_lo +. (frac *. (nth hi -. at_lo))

(* [sorted] is non-empty, NaN-free and ascending. *)
let percentile_sorted sorted ~p =
  percentile_ranked ~n:(Array.length sorted) ~nth:(Array.get sorted) ~p

let percentile xs ~p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty array";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let kept = drop_nans xs in
  if Array.length kept = 0 then
    invalid_arg "Stats.percentile: no non-NaN samples";
  let sorted = if kept == xs then Array.copy kept else kept in
  Array.sort Float.compare sorted;
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

(* Uniform buckets over [\[s.min, s.max\]]; one bucket's width when
   every sample is equal. *)
let bucket_width ~bins (s : summary) =
  let span = s.max -. s.min in
  if span <= 0.0 then 1.0 else span /. float_of_int bins

let[@inline] bucket_index ~bins ~lo ~width x =
  let i = int_of_float ((x -. lo) /. width) in
  if i < 0 then 0 else if i >= bins then bins - 1 else i

(* The histogram of [n > 0] samples summarised by [s], whose [k]-th
   smallest is [nth k], with [buckets] already filled. *)
let assemble (s : summary) ~n ~nth ~width buckets =
  let q p = percentile_ranked ~n ~nth ~p in
  {
    n;
    mean = s.mean;
    min = s.min;
    max = s.max;
    p50 = q 50.0;
    p90 = q 90.0;
    p99 = q 99.0;
    bucket_lo = s.min;
    bucket_width = width;
    buckets;
  }

let histogram ?(bins = 10) xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  let xs = drop_nans xs in
  let n = Array.length xs in
  if n = 0 then empty_histogram
  else
    let s = of_array xs in
    Array.sort Float.compare xs;
    let lo = s.min and width = bucket_width ~bins s in
    let buckets = Array.make bins 0 in
    for k = 0 to n - 1 do
      let i = bucket_index ~bins ~lo ~width xs.(k) in
      buckets.(i) <- buckets.(i) + 1
    done;
    assemble s ~n ~nth:(Array.get xs) ~width buckets

(* --- exact integer counts ------------------------------------------- *)

module Counts = struct
  (* Value -> multiplicity in one open-addressing table over two flat
     int arrays (linear probing, doubled when half full): recording a
     value already present writes one int and allocates nothing. A slot
     is free iff its count is 0, so every int is a valid key. Beside
     the table, a Welford accumulator takes every sample as it arrives,
     so mean and extremes are folded in the very order [of_array] folds
     the arrival-ordered float array. *)
  type nonrec t = {
    mutable keys : int array;
    mutable counts : int array;
    mutable distinct : int;
    welford : t;
  }

  let initial_slots = 16

  let create () =
    {
      keys = Array.make initial_slots 0;
      counts = Array.make initial_slots 0;
      distinct = 0;
      welford = create ();
    }

  let count c = count c.welford

  (* Fibonacci hashing: the costs and spans a run records are multiples
     of a few configured steps, which a plain mask would pile into a
     few slots. *)
  let[@inline] home v mask =
    let h = v * 0x1E3779B97F4A7C15 in
    (h lxor (h lsr 31)) land mask

  (* The slot holding [v], or the free slot where it would go. *)
  let[@inline] find keys counts v =
    let mask = Array.length keys - 1 in
    let i = ref (home v mask) in
    while counts.(!i) <> 0 && keys.(!i) <> v do
      i := (!i + 1) land mask
    done;
    !i

  let grow c =
    let keys = Array.make (2 * Array.length c.keys) 0 in
    let counts = Array.make (Array.length keys) 0 in
    for j = 0 to Array.length c.keys - 1 do
      let m = c.counts.(j) in
      if m <> 0 then begin
        let i = find keys counts c.keys.(j) in
        keys.(i) <- c.keys.(j);
        counts.(i) <- m
      end
    done;
    c.keys <- keys;
    c.counts <- counts

  let add c v =
    add c.welford (float_of_int v);
    let counts = c.counts in
    let i = find c.keys counts v in
    if counts.(i) <> 0 then counts.(i) <- counts.(i) + 1
    else begin
      c.keys.(i) <- v;
      counts.(i) <- 1;
      c.distinct <- c.distinct + 1;
      if 2 * c.distinct > Array.length counts then grow c
    end

  let histogram ?(bins = 10) c =
    if bins <= 0 then
      invalid_arg "Stats.Counts.histogram: bins must be positive";
    let n = count c in
    if n = 0 then empty_histogram
    else begin
      (* The distinct values ascending, with their multiplicities. *)
      let values = Array.make c.distinct 0 in
      let d = ref 0 in
      Array.iteri
        (fun j m ->
          if m <> 0 then begin
            values.(!d) <- c.keys.(j);
            incr d
          end)
        c.counts;
      Array.sort Int.compare values;
      let mult =
        Array.map (fun v -> c.counts.(find c.keys c.counts v)) values
      in
      (* The [k]-th smallest sample: the value whose run of copies in
         the sorted samples covers index [k]. *)
      let nth k =
        let j = ref 0 and upto = ref mult.(0) in
        while !upto <= k do
          incr j;
          upto := !upto + mult.(!j)
        done;
        float_of_int values.(!j)
      in
      let s = summary c.welford in
      let lo = s.min and width = bucket_width ~bins s in
      let buckets = Array.make bins 0 in
      Array.iteri
        (fun j v ->
          let i = bucket_index ~bins ~lo ~width (float_of_int v) in
          buckets.(i) <- buckets.(i) + mult.(j))
        values;
      assemble s ~n ~nth ~width buckets
    end
end

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

  (* The five initial markers, sorted by insertion: with no call and no
     closure, no float is boxed, so a tracker's warm-up allocates
     nothing. *)
  let sort5 (q : float array) =
    for i = 1 to 4 do
      let x = q.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && q.(!j) > x do
        q.(!j + 1) <- q.(!j);
        decr j
      done;
      q.(!j + 1) <- x
    done

  let add t x =
    if not (Float.is_nan x) then begin
      if t.count < 5 then begin
        t.q.(t.count) <- x;
        t.count <- t.count + 1;
        if t.count = 5 then sort5 t.q
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
      Array.sort Float.compare sorted;
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
