module Trace = Rtlf_sim.Trace

(* Occupancy reconstruction shared by both checkers. A job occupies a
   core from its [Start (jid, core)] until a vacating event: [Preempt],
   [Complete], [Abort], or — under blocking (non-spin) locks — [Block].
   A spin-waiter keeps burning on its core through [Block]/[Wake], so
   under [~spin:true] a [Block] does not vacate. *)

let err fmt = Format.kasprintf (fun s -> Error s) fmt

let sweep ~spin trace ~on_start ~on_migrate =
  let occupying = Hashtbl.create 16 in (* jid -> core *)
  let occupant = Hashtbl.create 4 in (* core -> jid *)
  let last_start = Hashtbl.create 16 in (* jid -> core of last Start *)
  let vacate jid =
    match Hashtbl.find_opt occupying jid with
    | None -> ()
    | Some core ->
      Hashtbl.remove occupying jid;
      Hashtbl.remove occupant core
  in
  let exception Bad of string in
  try
    Trace.iter
      (fun { Trace.time; kind } ->
        let fail fmt =
          Format.kasprintf (fun s -> raise (Bad s)) ("t=%d: " ^^ fmt) time
        in
        match kind with
        | Trace.Start (jid, core) ->
          (match on_start ~fail jid core with () -> ());
          (match Hashtbl.find_opt occupying jid with
          | Some other ->
            fail "J%d started on c%d while still occupying c%d" jid core
              other
          | None -> ());
          (match Hashtbl.find_opt occupant core with
          | Some other when other <> jid ->
            fail "J%d started on c%d while J%d still occupies it" jid core
              other
          | Some _ | None -> ());
          Hashtbl.replace occupying jid core;
          Hashtbl.replace occupant core jid;
          Hashtbl.replace last_start jid core
        | Trace.Migrate (jid, from_c, to_c) ->
          (match on_migrate ~fail jid from_c to_c with () -> ());
          (match Hashtbl.find_opt occupying jid with
          | Some core ->
            fail "J%d migrated c%d->c%d while occupying c%d" jid from_c to_c
              core
          | None -> ());
          (match Hashtbl.find_opt last_start jid with
          | Some c when c <> from_c ->
            fail "J%d migrated from c%d but last ran on c%d" jid from_c c
          | Some _ -> ()
          | None -> fail "J%d migrated c%d->c%d before ever running" jid
                      from_c to_c)
        | Trace.Preempt (jid, _) -> vacate jid
        | Trace.Block (jid, _) -> if not spin then vacate jid
        | Trace.Complete jid | Trace.Abort (jid, _) -> vacate jid
        | Trace.Arrive _ | Trace.Wake _ | Trace.Acquire _ | Trace.Release _
        | Trace.Retry _ | Trace.Access_done _ | Trace.Sched _ ->
          ())
      trace;
    Ok ()
  with Bad msg -> Error msg

let check_single_occupancy ~spin trace =
  sweep ~spin trace
    ~on_start:(fun ~fail:_ _ _ -> ())
    ~on_migrate:(fun ~fail:_ _ _ _ -> ())

let check_migration_balance ~spin trace =
  (* Every migration must be consumed by the very next Start of that
     job, on the arriving core; and no migration may still be pending
     at the end of the trace. *)
  let pending = Hashtbl.create 8 in (* jid -> destination core *)
  let result =
    sweep ~spin trace
      ~on_start:(fun ~fail jid core ->
        match Hashtbl.find_opt pending jid with
        | Some dest when dest <> core ->
          fail "J%d migrated towards c%d but started on c%d" jid dest core
        | Some _ -> Hashtbl.remove pending jid
        | None -> ())
      ~on_migrate:(fun ~fail jid _from_c to_c ->
        match Hashtbl.find_opt pending jid with
        | Some dest ->
          fail "J%d migrated again (towards c%d) with a migration to c%d \
                still pending"
            jid to_c dest
        | None -> Hashtbl.replace pending jid to_c)
  in
  match result with
  | Error _ as e -> e
  | Ok () ->
    if Hashtbl.length pending = 0 then Ok ()
    else
      let jid, dest =
        Hashtbl.fold (fun j d _ -> (j, d)) pending (-1, -1)
      in
      err "J%d has a dangling migration to c%d with no matching start" jid
        dest

let migrations trace =
  Trace.count trace (function Trace.Migrate _ -> true | _ -> false)
