(* A loop, not a local recursive function: that would capture [n] and
   allocate a closure per call, and the deciders call this once per
   candidate. *)
let ceil n =
  if n <= 1 then 1
  else begin
    let acc = ref 0 and p = ref 1 in
    while !p < n do
      incr acc;
      p := !p * 2
    done;
    !acc
  end
