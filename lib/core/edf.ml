module Job = Rtlf_model.Job

(* The decision is a pure function of the runnable subset: critical
   times are fixed at arrival, and [now] and [remaining] are unused.
   The charged [ops] counts every entry of [jobs], dead ones included.
   The schedule is the runnable positions, heapsorted in place by
   (key, jid) from position-indexed key arrays; each key starts as the
   job's critical time and [lower] may then lower it. *)

(* [after key jid a b]: position [a] sorts after position [b]. *)
let[@inline] after (key : int array) (jid : int array) a b =
  let ka = key.(a) and kb = key.(b) in
  ka > kb || (ka = kb && jid.(a) > jid.(b))

let rec sift key jid perm i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let big = if after key jid perm.(l) perm.(i) then l else i in
    let r = l + 1 in
    let big = if r < len && after key jid perm.(r) perm.(big) then r else big in
    if big <> i then begin
      let t = perm.(i) in
      perm.(i) <- perm.(big);
      perm.(big) <- t;
      sift key jid perm big len
    end
  end

let sort_keyed ~key ~jid perm n =
  for i = (n / 2) - 1 downto 0 do
    sift key jid perm i n
  done;
  for len = n - 1 downto 1 do
    let t = perm.(0) in
    perm.(0) <- perm.(len);
    perm.(len) <- t;
    sift key jid perm 0 len
  done

type scratch = {
  mutable key : int array; (* position -> sort key *)
  mutable jid : int array; (* position -> jid *)
  decision : Scheduler.decision;
}

let decide s ~lower ~ops ~jobs =
  let total = Array.length jobs in
  s.key <- Scratch.ensure total s.key;
  s.jid <- Scratch.ensure total s.jid;
  let d = s.decision in
  Scheduler.set_schedule_capacity d total;
  let n = ref 0 and live = ref 0 in
  for i = 0 to total - 1 do
    let j = jobs.(i) in
    if Job.is_live j then incr live;
    if Job.is_runnable j then begin
      s.key.(i) <- Job.absolute_critical_time j;
      s.jid.(i) <- j.Job.jid;
      d.schedule.(!n) <- i;
      incr n
    end
  done;
  lower jobs s.key;
  sort_keyed ~key:s.key ~jid:s.jid d.schedule !n;
  d.jobs <- jobs;
  d.length <- !n;
  d.dispatch <- (if !n > 0 then d.schedule.(0) else -1);
  d.ops <- ops ~total ~live:!live;
  d

let keyed ~name ~lower ~ops =
  let s = { key = [||]; jid = [||]; decision = Scheduler.create_decision () } in
  {
    Scheduler.name;
    decide = (fun ~now:_ ~jobs ~remaining:_ -> decide s ~lower ~ops ~jobs);
  }

let make () =
  keyed ~name:"edf" ~lower:(fun _ _ -> ()) ~ops:(fun ~total ~live:_ -> total)
