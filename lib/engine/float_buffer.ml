type t = { mutable data : float array; mutable len : int }

let create ?(capacity = 0) () = { data = Array.make capacity 0.0; len = 0 }

let length buf = buf.len

let[@inline] push buf x =
  let cap = Array.length buf.data in
  if buf.len = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let ndata = Array.make ncap 0.0 in
    Array.blit buf.data 0 ndata 0 buf.len;
    buf.data <- ndata
  end;
  buf.data.(buf.len) <- x;
  buf.len <- buf.len + 1

let[@inline] push_int buf n = push buf (float_of_int n)

let[@inline] get buf i =
  if i < 0 || i >= buf.len then invalid_arg "Float_buffer.get: out of bounds";
  buf.data.(i)

let to_array buf = Array.sub buf.data 0 buf.len
