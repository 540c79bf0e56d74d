type decision = {
  dispatch : Rtlf_model.Job.t option;
  aborts : Rtlf_model.Job.t list;
  rejected : int list;
  schedule : Rtlf_model.Job.t list;
  ops : int;
}

type t = {
  name : string;
  decide :
    now:int ->
    jobs:Rtlf_model.Job.t array ->
    remaining:(Rtlf_model.Job.t -> int) ->
    decision;
}
