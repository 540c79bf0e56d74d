(** The digest pins' fixed-seed grids of configs and the documents
    recording their result digests: ["rtlf-m1-digests-v1"] for single
    core, ["rtlf-smp-digests-v1"] for 2 and 4 cores, and
    ["rtlf-export-digests-v1"] for the exporters' output on both grids. *)

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

val export_document : document
(** {!all}, {!smp} and one 4-core run whose trace ring dropped entries,
    under ["rtlf-export-digests-v1"]. *)

val digests : Rtlf_sim.Simulator.result -> (string * string) list
(** MD5 hex of each {!Test_support.fingerprint} group. *)

val export_digests : Rtlf_sim.Simulator.result -> (string * string) list
(** MD5 hex of the result's Chrome trace export, of its five span-list
    lengths and, when the trace dropped nothing, of its rendered
    timeline at 72 x 20 and 100 x 24 (buckets x jobs). *)

val diverging :
  (Rtlf_sim.Simulator.result -> (string * string) list) ->
  (string * (string * string) list) list ->
  (string * Rtlf_sim.Simulator.config) list ->
  string list
(** [diverging digest want configs] runs each config and names those
    whose [digest] groups differ from [want]'s, as ["label: g1, g2"]
    with the differing groups in [digest]'s order. *)

val to_string : document -> (string * (string * string) list) list -> string
(** The digest document for [(label, digests)] pairs, one per line. *)

val check_document :
  document ->
  Rtlf_obs.Json.t ->
  ((string * (string * string) list) list, string) result
(** The digests by label, or a named error: a missing or wrong schema
    tag, a grid config with no digest, a digest with no grid config. *)
