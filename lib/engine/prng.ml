(* The 64-bit state lives in an 8-byte buffer, read and written with
   [Bytes.get_int64_le]/[set_int64_le], so a draw allocates nothing; a
   mutable [int64] record field would box a fresh value on every store. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let g = Bytes.create 8 in
  Bytes.set_int64_le g 0 state;
  g

let create ~seed = of_state (Int64.of_int seed)
let copy = Bytes.copy

(* SplitMix64 output function. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Advances the state and returns the next output. Inlined into every
   draw, so the [int64] stays unboxed until a caller returns it. *)
let[@inline] next g =
  let state = Int64.add (Bytes.get_int64_le g 0) golden_gamma in
  Bytes.set_int64_le g 0 state;
  mix state

let bits64 g = next g
let split g = of_state (next g)

let int g ~bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Keep 62 bits: OCaml's native int is 63-bit, so a 63-bit value
     would wrap negative through [Int64.to_int]. *)
  let r = Int64.to_int (Int64.shift_right_logical (next g) 2) in
  r mod bound

let int_in g ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in: hi < lo";
  lo + int g ~bound:(hi - lo + 1)

let float g ~bound =
  let r = Int64.to_float (Int64.shift_right_logical (next g) 11) in
  bound *. (r /. 9007199254740992.0) (* 2^53 *)

let float_in g ~lo ~hi = lo +. float g ~bound:(hi -. lo)

let bool g = Int64.logand (next g) 1L = 1L

let exponential g ~mean =
  let u = 1.0 -. float g ~bound:1.0 in
  -.mean *. log u

let choose g arr =
  if Array.length arr = 0 then invalid_arg "Prng.choose: empty array";
  arr.(int g ~bound:(Array.length arr))

let shuffle g arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int g ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
