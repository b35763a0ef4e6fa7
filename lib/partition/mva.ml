module Rng = Pgrid_prng.Rng
module Sample = Pgrid_prng.Sample

type outcome = { p0 : float; p1 : float; interactions : float }

(* One step's expected increments.  [flipped = false] is canonical AEP
   (side 0 is the minority side): contacted-0 => decide 1; contacted-1 =>
   decide 0 w.p. beta.  [flipped = true] swaps the sides' roles. *)
let increments ~alpha ~beta ~flipped ~n ~p0 ~p1 ~u =
  let split = alpha *. Float.max 0. (u -. 1.) /. n in
  if not flipped then
    (split +. (beta *. p1 /. n), split +. (p0 /. n) +. ((1. -. beta) *. p1 /. n))
  else (split +. (p1 /. n) +. ((1. -. beta) *. p0 /. n), split +. (beta *. p0 /. n))

(* The generic engine: at each step [probabilities_of ()] yields the
   (alpha, beta) pair to use and whether the stepping peer believes the
   sides' roles are flipped (its estimate exceeded 1/2); [run_exact] and
   [run_sampled] are instances. *)
let run_with ~n ~probabilities_of =
  if n < 1 then invalid_arg "Mva.run_with: n must be >= 1";
  let fn = float_of_int n in
  let total = fn +. 1. in
  let p0 = ref 0. and p1 = ref 0. and steps = ref 0. in
  let max_steps = 10_000_000 in
  let iter = ref 0 in
  while !p0 +. !p1 < total && !iter < max_steps do
    incr iter;
    let { Aep_math.alpha; beta }, flipped = probabilities_of () in
    let u = total -. !p0 -. !p1 in
    let d0, d1 = increments ~alpha ~beta ~flipped ~n:fn ~p0:!p0 ~p1:!p1 ~u in
    let advance = d0 +. d1 in
    if advance <= 0. then
      (* Degenerate probabilities (alpha = beta = 0 with nobody decided):
         the process cannot progress; bail out. *)
      iter := max_steps
    else begin
      let remaining = total -. !p0 -. !p1 in
      if advance >= remaining then begin
        (* Fractional final step, as in the paper's mean-value analysis. *)
        let frac = remaining /. advance in
        p0 := !p0 +. (frac *. d0);
        p1 := !p1 +. (frac *. d1);
        steps := !steps +. frac
      end
      else begin
        p0 := !p0 +. d0;
        p1 := !p1 +. d1;
        steps := !steps +. 1.
      end
    end
  done;
  { p0 = !p0; p1 = !p1; interactions = !steps }

(* Binomial pmf in log space; small [n] only. *)
let binomial_pmf ~n ~p k =
  if p <= 0. then if k = 0 then 1. else 0.
  else if p >= 1. then if k = n then 1. else 0.
  else begin
    let log_choose =
      let rec lg acc i =
        if i > k then acc
        else lg (acc +. log (float_of_int (n - k + i)) -. log (float_of_int i)) (i + 1)
      in
      lg 0. 1
    in
    exp
      (log_choose
      +. (float_of_int k *. log p)
      +. (float_of_int (n - k) *. log (1. -. p)))
  end

let run_mixture_with ~n ~p ~samples ~adjust =
  if n < 1 then invalid_arg "Mva.run_mixture: n must be >= 1";
  if samples < 1 then invalid_arg "Mva.run_mixture: samples must be >= 1";
  if not (p > 0. && p < 1.) then invalid_arg "Mva.run_mixture: need 0 < p < 1";
  let fn = float_of_int n in
  let total = fn +. 1. in
  let classes =
    Array.init (samples + 1) (fun k ->
        let raw =
          Aep_math.clamp_estimate ~samples (float_of_int k /. float_of_int samples)
        in
        let p_eff, flipped = Aep_math.normalize raw in
        let p_adj = Float.max 1e-9 (Float.min 0.5 (adjust p_eff)) in
        (Aep_math.probabilities ~p:p_adj, flipped))
  in
  let u = Array.init (samples + 1) (fun k -> total *. binomial_pmf ~n:samples ~p k) in
  let p0 = ref 0. and p1 = ref 0. and steps = ref 0. in
  let undecided () = Array.fold_left ( +. ) 0. u in
  let max_steps = 1000 * n in
  let iter = ref 0 in
  let continue = ref true in
  while !continue && !iter < max_steps do
    incr iter;
    let total_u = undecided () in
    if total_u < 1e-6 then continue := false
    else begin
      let d0 = ref 0. and d1 = ref 0. in
      (* Expected undecided-contact split removals, per contacted class. *)
      let split_removal = Array.make (samples + 1) 0. in
      let initiator_removal = Array.make (samples + 1) 0. in
      Array.iteri
        (fun c ({ Aep_math.alpha; beta }, flipped) ->
          let w = u.(c) /. total_u in
          if w > 0. then begin
            let others = Float.max 0. (total_u -. 1.) in
            let split = alpha *. others /. fn in
            let i0, i1 =
              if not flipped then
                (beta *. !p1 /. fn, (!p0 /. fn) +. ((1. -. beta) *. !p1 /. fn))
              else ((!p1 /. fn) +. ((1. -. beta) *. !p0 /. fn), beta *. !p0 /. fn)
            in
            d0 := !d0 +. (w *. (split +. i0));
            d1 := !d1 +. (w *. (split +. i1));
            (* The initiator leaves the undecided pool whenever it decides;
               a split also removes the contacted undecided peer. *)
            initiator_removal.(c) <-
              initiator_removal.(c) +. (w *. (split +. i0 +. i1));
            Array.iteri
              (fun d ud ->
                if others > 0. then
                  split_removal.(d) <-
                    split_removal.(d) +. (w *. split *. (ud /. others)))
              u
          end)
        classes;
      let advance = !d0 +. !d1 in
      if advance <= 1e-12 then continue := false
      else begin
        let remaining = total -. !p0 -. !p1 in
        let frac = if advance >= remaining then remaining /. advance else 1. in
        p0 := !p0 +. (frac *. !d0);
        p1 := !p1 +. (frac *. !d1);
        steps := !steps +. frac;
        Array.iteri
          (fun c _ ->
            u.(c) <-
              Float.max 0.
                (u.(c) -. (frac *. (initiator_removal.(c) +. split_removal.(c)))))
          classes;
        if frac < 1. then continue := false
      end
    end
  done;
  { p0 = !p0; p1 = !p1; interactions = !steps }

let run_mixture ~n ~p ~samples = run_mixture_with ~n ~p ~samples ~adjust:(fun x -> x)

let run_exact ~n ~p =
  let probs = Aep_math.probabilities ~p in
  run_with ~n ~probabilities_of:(fun () -> (probs, false))

let run_sampled rng ~n ~p ~samples =
  let probabilities_of () =
    let hits = Sample.binomial rng ~n:samples ~p in
    let estimate =
      Aep_math.clamp_estimate ~samples (float_of_int hits /. float_of_int samples)
    in
    let p_eff, flipped = Aep_math.normalize estimate in
    (Aep_math.probabilities ~p:p_eff, flipped)
  in
  run_with ~n ~probabilities_of
