(* Doubling: a run whose live set creeps upward would otherwise
   reallocate every array at each new high, and arrays past the
   minor-heap size limit become major-heap garbage. *)
let grow n arr = Int.max n (Int.max 16 (2 * Array.length arr))
let ensure n arr = if Array.length arr >= n then arr else Array.make (grow n arr) 0
let ensure_bool n arr =
  if Array.length arr >= n then arr else Array.make (grow n arr) false
let ensure_float n arr =
  if Array.length arr >= n then arr else Array.make (grow n arr) 0.0
