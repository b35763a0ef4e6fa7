let uniform rng ~lo ~hi =
  if not (lo < hi) then invalid_arg "Sample.uniform: lo must be < hi";
  lo +. ((hi -. lo) *. Rng.float rng)

(* A uniform draw in (0, 1): the logarithms below must not see 0.  It
   and [normal] are inlined into the samplers below, so a lognormal draw
   (a message latency) boxes only its result and its uniforms. *)
let[@inline] nonzero rng =
  let u = ref (Rng.float rng) in
  while not (!u > 0.) do
    u := Rng.float rng
  done;
  !u

let[@inline] normal rng ~mu ~sigma =
  (* Box-Muller. *)
  let u1 = nonzero rng in
  let u2 = Rng.float rng in
  let r = sqrt (-2. *. log u1) in
  mu +. (sigma *. r *. cos (2. *. Float.pi *. u2))

let pareto rng ~alpha ~k =
  if alpha <= 0. || k <= 0. then invalid_arg "Sample.pareto";
  k /. Float.pow (nonzero rng) (1. /. alpha)

let exponential rng ~rate =
  if rate <= 0. then invalid_arg "Sample.exponential";
  -.log (nonzero rng) /. rate

let lognormal rng ~mu ~sigma = exp (normal rng ~mu ~sigma)

let binomial rng ~n ~p =
  if n < 0 then invalid_arg "Sample.binomial";
  let count = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng p then incr count
  done;
  !count

let geometric rng ~p =
  if not (p > 0. && p <= 1.) then invalid_arg "Sample.geometric";
  if p >= 1. then 1
  else 1 + int_of_float (Float.floor (log (nonzero rng) /. log (1. -. p)))

module Zipf = struct
  type t = { cdf : float array }

  let create ~n ~s =
    if n < 1 then invalid_arg "Zipf.create: n must be >= 1";
    if s < 0. then invalid_arg "Zipf.create: s must be >= 0";
    let cdf = Array.make n 0. in
    let acc = ref 0. in
    for r = 1 to n do
      acc := !acc +. (1. /. Float.pow (float_of_int r) s);
      cdf.(r - 1) <- !acc
    done;
    let total = !acc in
    Array.iteri (fun i v -> cdf.(i) <- v /. total) cdf;
    { cdf }

  let support t = Array.length t.cdf

  let draw t rng =
    let u = Rng.float rng in
    (* Least index with cdf.(i) > u; the answer is rank i+1. *)
    let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo + 1
end
