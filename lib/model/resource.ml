type t = int array (* per object: its version *)

let create ~n =
  if n < 0 then invalid_arg "Resource.create: negative count";
  Array.make n 0

let count r = Array.length r

let check r obj =
  if obj < 0 || obj >= count r then
    invalid_arg (Printf.sprintf "Resource: object %d out of range" obj)

let version r obj =
  check r obj;
  r.(obj)

let bump r obj =
  check r obj;
  r.(obj) <- r.(obj) + 1
