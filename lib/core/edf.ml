module Job = Rtlf_model.Job

(* The decision is a pure function of the runnable subset: critical
   times are fixed at arrival, and [now] and [remaining] are unused.
   The charged [ops] counts every entry of [jobs], dead ones included. *)

let by_ct a b =
  let ca = Job.absolute_critical_time a
  and cb = Job.absolute_critical_time b in
  if ca <> cb then Int.compare ca cb else Int.compare a.Job.jid b.Job.jid

let decide ~now:_ ~jobs ~remaining:_ =
  let runnable =
    Array.fold_right
      (fun j acc -> if Job.is_runnable j then j :: acc else acc)
      jobs []
  in
  let schedule = List.sort by_ct runnable in
  {
    Scheduler.dispatch = (match schedule with [] -> None | j :: _ -> Some j);
    aborts = [];
    rejected = [];
    schedule;
    ops = Array.length jobs;
  }

let make () = { Scheduler.name = "edf"; decide }
