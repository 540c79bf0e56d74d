type state = Ready | Running | Blocked of int | Completed | Aborted

type t = {
  task : Task.t;
  jid : int;
  arrival : int;
  mutable state : state;
  mutable segments : Segment.t list;
  mutable seg_progress : int;
  mutable holding : int list;
  mutable lock_pending : bool;
  mutable attempt_snapshot : int option;
  mutable access_enter : int option;
  mutable retries : int;
  mutable preemptions : int;
  mutable blocked_count : int;
  mutable completion : int option;
  mutable accrued : float;
  mutable last_core : int;
}

let of_segments ~task ~segments ~jid ~arrival =
  {
    task;
    jid;
    arrival;
    state = Ready;
    segments;
    seg_progress = 0;
    holding = [];
    lock_pending = false;
    attempt_snapshot = None;
    access_enter = None;
    retries = 0;
    preemptions = 0;
    blocked_count = 0;
    completion = None;
    accrued = 0.0;
    last_core = -1;
  }

let create ~task ~jid ~arrival =
  of_segments ~task ~segments:(Task.segments task) ~jid ~arrival

let dummy =
  let task =
    Task.make ~id:0 ~name:"dummy"
      ~tuf:(Tuf.step ~height:0.0 ~c:1)
      ~arrival:(Uam.periodic ~period:1) ~exec:0 ()
  in
  create ~task ~jid:(-1) ~arrival:0

let absolute_critical_time j = j.arrival + Task.critical_time j.task

let remaining_nominal j =
  match j.segments with
  | [] -> 0
  | head :: tail ->
    Segment.span head - j.seg_progress + Segment.total_span tail

let remaining_accesses j = Segment.count_accesses j.segments

let current_segment j =
  match j.segments with [] -> None | head :: _ -> Some head

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
  match j.completion with None -> None | Some c -> Some (c - j.arrival)

let finish_segment j =
  match j.segments with
  | [] -> invalid_arg "Job.finish_segment: no segment remaining"
  | _ :: tail ->
    j.segments <- tail;
    j.seg_progress <- 0;
    j.lock_pending <- false;
    j.attempt_snapshot <- None;
    j.access_enter <- None

let restart_access j =
  j.seg_progress <- 0;
  j.attempt_snapshot <- None;
  j.retries <- j.retries + 1
