(** The digest pins' fixed-seed grids of configs and the documents
    recording their result digests: ["rtlf-m1-digests-v1"] for single
    core, ["rtlf-smp-digests-v1"] for 2 and 4 cores. *)

val random : (string * Rtlf_sim.Simulator.config) list
(** Eight specs drawn with seed {!Test_support.default_seed}, each
    under every sync × scheduler × dispatch policy, by label. *)

val adversarial : (string * Rtlf_sim.Simulator.config) list
(** The same specs, lock-free RUA under the adversarial retry rule. *)

val nested : (string * Rtlf_sim.Simulator.config) list
(** The nested/deadlock scene under every sync. *)

val all : (string * Rtlf_sim.Simulator.config) list
(** [random @ adversarial @ nested]. *)

val smp : (string * Rtlf_sim.Simulator.config) list
(** {!random} and {!nested} at 2 and at 4 cores, labels prefixed
    ["m2/"] and ["m4/"]. *)

type document = {
  name : string;  (** ["m1"] or ["smp"], the prefix of its errors *)
  schema : string;
  grid : (string * Rtlf_sim.Simulator.config) list;
}

val m1_document : document
(** {!all} under ["rtlf-m1-digests-v1"]. *)

val smp_document : document
(** {!smp} under ["rtlf-smp-digests-v1"]. *)

val digests : Rtlf_sim.Simulator.result -> (string * string) list
(** MD5 hex of each {!Test_support.fingerprint} group. *)

val to_string : document -> (string * (string * string) list) list -> string
(** The digest document for [(label, digests)] pairs, one per line. *)

val check_document :
  document ->
  Rtlf_obs.Json.t ->
  ((string * (string * string) list) list, string) result
(** The digests by label, or a named error: a missing or wrong schema
    tag, a grid config with no digest, a digest with no grid config. *)
