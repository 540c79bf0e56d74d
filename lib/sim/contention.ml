type t = {
  obj : int;
  mutable acquires : int;
  mutable conflicts : int;
  mutable retries : int;
  mutable blocked_ns : int;
  mutable max_queue_depth : int;
}

type totals = {
  t_acquires : int;
  t_conflicts : int;
  t_retries : int;
  t_blocked_ns : int;
}

let make_array ~n =
  Array.init n (fun obj ->
      {
        obj;
        acquires = 0;
        conflicts = 0;
        retries = 0;
        blocked_ns = 0;
        max_queue_depth = 0;
      })

let note_acquire c = c.acquires <- c.acquires + 1

let note_conflict c = c.conflicts <- c.conflicts + 1

let note_retry c =
  c.retries <- c.retries + 1;
  c.conflicts <- c.conflicts + 1

let note_blocked c ~ns =
  if ns < 0 then invalid_arg "Contention.note_blocked: negative span";
  c.blocked_ns <- c.blocked_ns + ns

let note_queue_depth c ~depth =
  if depth > c.max_queue_depth then c.max_queue_depth <- depth

let totals arr =
  Array.fold_left
    (fun acc c ->
      {
        t_acquires = acc.t_acquires + c.acquires;
        t_conflicts = acc.t_conflicts + c.conflicts;
        t_retries = acc.t_retries + c.retries;
        t_blocked_ns = acc.t_blocked_ns + c.blocked_ns;
      })
    { t_acquires = 0; t_conflicts = 0; t_retries = 0; t_blocked_ns = 0 }
    arr

let is_quiet c =
  c.acquires = 0 && c.conflicts = 0 && c.retries = 0 && c.blocked_ns = 0
  && c.max_queue_depth = 0
