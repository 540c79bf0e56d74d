type spin_kind = Ticket | Mcs

type t =
  | Lock_based of { overhead : int }
  | Lock_free of { overhead : int }
  | Spin of { overhead : int; kind : spin_kind }
  | Ideal

let spin_kind_name = function Ticket -> "ticket" | Mcs -> "mcs"

let name = function
  | Lock_based _ -> "lock-based"
  | Lock_free _ -> "lock-free"
  | Spin { kind; _ } -> "spin-" ^ spin_kind_name kind
  | Ideal -> "ideal"

let nominal_access_cost sync ~work =
  match sync with
  | Lock_based { overhead } -> (2 * overhead) + work
  | Lock_free { overhead } -> overhead + work
  | Spin { overhead; _ } -> (2 * overhead) + work
  | Ideal -> 0

let uses_lock_events = function
  | Lock_based _ | Spin _ -> true
  | Lock_free _ | Ideal -> false
