(** The m = 1 pin's fixed-seed grid of single-core configs and the
    ["rtlf-m1-digests-v1"] document recording their result digests. *)

val random : (string * Rtlf_sim.Simulator.config) list
(** Eight specs drawn with seed {!Test_support.default_seed}, each
    under every sync × scheduler × dispatch policy, by label. *)

val adversarial : (string * Rtlf_sim.Simulator.config) list
(** The same specs, lock-free RUA under the adversarial retry rule. *)

val nested : (string * Rtlf_sim.Simulator.config) list
(** The nested/deadlock scene under every sync. *)

val all : (string * Rtlf_sim.Simulator.config) list
(** [random @ adversarial @ nested]. *)

val digests : Rtlf_sim.Simulator.result -> (string * string) list
(** MD5 hex of each {!Test_support.fingerprint} group. *)

val to_string : (string * (string * string) list) list -> string
(** The digest document for [(label, digests)] pairs, one per line. *)

val check_document :
  Rtlf_obs.Json.t -> ((string * (string * string) list) list, string) result
(** The digests by label, or a named error: a missing or wrong schema
    tag, a grid config with no digest, a digest with no grid config. *)
