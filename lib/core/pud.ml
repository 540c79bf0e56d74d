module Job = Rtlf_model.Job

let of_chain ~now ~remaining chain =
  if chain = [] then invalid_arg "Pud.of_chain: empty chain";
  let finish, total_utility =
    List.fold_left
      (fun (t, u) job ->
        let t = t + remaining job in
        (t, u +. Job.utility_at job ~now:t))
      (now, 0.0) chain
  in
  let span = finish - now in
  if span <= 0 then infinity
  else total_utility /. float_of_int span

(* Equivalent to [of_chain ~now ~remaining [job]] but allocation-free:
   the schedulers call this once per live job per invocation. *)
let of_job ~now ~remaining job =
  let finish = now + remaining job in
  let utility = Job.utility_at job ~now:finish in
  let span = finish - now in
  if span <= 0 then infinity else utility /. float_of_int span

(* In-place heapsort of an int permutation's prefix [0, n), the
   comparison inlined: no closure, no boxed key. The order is total, so
   the result agrees with the reference [List.sort].
   [after pud jid a b]: [a] sorts after [b]. *)
let[@inline] after (pud : float array) (jid : int array) a b =
  match Float.compare pud.(a) pud.(b) with 0 -> jid.(a) > jid.(b) | c -> c < 0

let rec sift pud jid perm i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let big = if after pud jid perm.(l) perm.(i) then l else i in
    let r = l + 1 in
    let big = if r < len && after pud jid perm.(r) perm.(big) then r else big in
    if big <> i then begin
      let t = perm.(i) in
      perm.(i) <- perm.(big);
      perm.(big) <- t;
      sift pud jid perm big len
    end
  end

let sort ~pud ~jid perm n =
  for i = (n / 2) - 1 downto 0 do
    sift pud jid perm i n
  done;
  for len = n - 1 downto 1 do
    let t = perm.(0) in
    perm.(0) <- perm.(len);
    perm.(len) <- t;
    sift pud jid perm 0 len
  done
