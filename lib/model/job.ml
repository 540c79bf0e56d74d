type state = Ready | Running | Blocked of int | Completed | Aborted

type t = {
  task : Task.t;
  jid : int;
  arrival : int;
  mutable state : state;
  profile : Segment.t array;
  mutable seg : int;
  mutable seg_progress : int;
  mutable holding : int list;
  mutable lock_pending : bool;
  mutable attempt_snapshot : int;
  mutable access_enter : int;
  mutable retries : int;
  mutable preemptions : int;
  mutable blocked_count : int;
  mutable block_start : int;
  mutable completion : int;
  mutable accrued : float;
  mutable last_core : int;
}

let of_profile ~task ~profile ~jid ~arrival =
  {
    task;
    jid;
    arrival;
    state = Ready;
    profile;
    seg = 0;
    seg_progress = 0;
    holding = [];
    lock_pending = false;
    attempt_snapshot = -1;
    access_enter = -1;
    retries = 0;
    preemptions = 0;
    blocked_count = 0;
    block_start = -1;
    completion = -1;
    accrued = 0.0;
    last_core = -1;
  }

let create ~task ~jid ~arrival =
  of_profile ~task ~profile:(Array.of_list (Task.segments task)) ~jid
    ~arrival

let dummy =
  let task =
    Task.make ~id:0 ~name:"dummy"
      ~tuf:(Tuf.step ~height:0.0 ~c:1)
      ~arrival:(Uam.periodic ~period:1) ~exec:0 ()
  in
  create ~task ~jid:(-1) ~arrival:0

let absolute_critical_time j = j.arrival + Task.critical_time j.task

let profile_done j = j.seg >= Array.length j.profile

let remaining_nominal j =
  if profile_done j then 0
  else begin
    let left = ref (-j.seg_progress) in
    for k = j.seg to Array.length j.profile - 1 do
      left := !left + Segment.span j.profile.(k)
    done;
    !left
  end

let remaining_accesses j =
  let n = ref 0 in
  for k = j.seg to Array.length j.profile - 1 do
    match j.profile.(k) with
    | Segment.Access _ -> incr n
    | Segment.Compute _ | Segment.Lock _ | Segment.Unlock _ -> ()
  done;
  !n

let current_segment j =
  if profile_done j then None else Some j.profile.(j.seg)

let is_live j =
  match j.state with
  | Ready | Running | Blocked _ -> true
  | Completed | Aborted -> false

let is_runnable j =
  match j.state with
  | Ready | Running -> true
  | Blocked _ | Completed | Aborted -> false

let utility_at j ~now = Tuf.utility j.task.Task.tuf ~at:(now - j.arrival)

let sojourn j =
  if j.completion < 0 then None else Some (j.completion - j.arrival)

let finish_segment j =
  if profile_done j then
    invalid_arg "Job.finish_segment: no segment remaining";
  j.seg <- j.seg + 1;
  j.seg_progress <- 0;
  j.lock_pending <- false;
  j.attempt_snapshot <- -1;
  j.access_enter <- -1

let restart_access j =
  j.seg_progress <- 0;
  j.attempt_snapshot <- -1;
  j.retries <- j.retries + 1
