type params = {
  r : float;
  s : float;
  m_i : int;
  n_i : int;
  a_i : int;
  x_i : int;
  u_i : float;
  interference : float;
}

let fi p = float_of_int ((3 * p.a_i) + (2 * p.x_i))

let blocking_time p = p.r *. float_of_int (min p.m_i p.n_i)

let worst_sojourn_lock_based p =
  p.u_i +. p.interference +. (p.r *. float_of_int p.m_i) +. blocking_time p

let worst_sojourn_lock_free p =
  p.u_i +. p.interference +. (p.s *. float_of_int p.m_i) +. (p.s *. fi p)

let crossover_ratio p =
  let numerator = float_of_int (p.m_i + min p.m_i p.n_i) in
  let denominator = float_of_int (p.m_i + (3 * p.a_i) + (2 * p.x_i)) in
  numerator /. denominator

let lock_free_wins p = worst_sojourn_lock_free p < worst_sojourn_lock_based p

let sufficient_condition p =
  let ratio = p.s /. p.r in
  if p.m_i <= p.n_i then ratio < 2.0 /. 3.0
  else
    ratio
    < float_of_int (p.m_i + p.n_i)
      /. float_of_int (p.m_i + (3 * p.a_i) + (2 * p.x_i))
