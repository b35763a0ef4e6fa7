(* Tests for Pgrid_prng: generator determinism and sampler statistics. *)

module Rng = Pgrid_prng.Rng
module Sample = Pgrid_prng.Sample

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let close ?(eps = 1e-9) msg a b = Alcotest.check (Alcotest.float eps) msg a b

let stream seed n =
  let rng = Rng.create ~seed in
  List.init n (fun _ -> Rng.bits64 rng)

let test_determinism () =
  check (Alcotest.list Alcotest.int64) "same seed, same stream" (stream 42 32)
    (stream 42 32)

let test_seed_sensitivity () =
  checkb "different seeds differ" false (stream 1 8 = stream 2 8)

let test_copy_independent () =
  let rng = Rng.create ~seed:7 in
  let snapshot = Rng.copy rng in
  let from_original = List.init 8 (fun _ -> Rng.bits64 rng) in
  let from_copy = List.init 8 (fun _ -> Rng.bits64 snapshot) in
  check (Alcotest.list Alcotest.int64) "copy replays the stream" from_original
    from_copy

let test_split_diverges () =
  let rng = Rng.create ~seed:7 in
  let child = Rng.split rng in
  let a = List.init 8 (fun _ -> Rng.bits64 rng) in
  let b = List.init 8 (fun _ -> Rng.bits64 child) in
  checkb "child stream differs from parent" false (a = b)

let test_float_range () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    if x < 0. || x >= 1. then Alcotest.failf "float out of range: %f" x
  done

let test_int_bounds () =
  let rng = Rng.create ~seed:4 in
  List.iter
    (fun n ->
      for _ = 1 to 2_000 do
        let v = Rng.int rng n in
        if v < 0 || v >= n then Alcotest.failf "int %d out of [0,%d)" v n
      done)
    [ 1; 2; 3; 7; 10; 100; 1 lsl 30 ]

let test_int_one () =
  let rng = Rng.create ~seed:5 in
  check Alcotest.int "bound 1 is always 0" 0 (Rng.int rng 1)

let test_int_invalid () =
  let rng = Rng.create ~seed:5 in
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_uniformity () =
  let rng = Rng.create ~seed:6 in
  let buckets = Array.make 16 0 in
  let n = 64_000 in
  for _ = 1 to n do
    let v = Rng.int rng 16 in
    buckets.(v) <- buckets.(v) + 1
  done;
  let expected = float_of_int n /. 16. in
  let chi2 =
    Array.fold_left
      (fun acc o ->
        let d = float_of_int o -. expected in
        acc +. (d *. d /. expected))
      0. buckets
  in
  (* 15 degrees of freedom: chi2 above 50 is essentially impossible. *)
  checkb "chi-square sane" true (chi2 < 50.)

let test_bernoulli_extremes () =
  let rng = Rng.create ~seed:8 in
  for _ = 1 to 100 do
    checkb "p=1 always true" true (Rng.bernoulli rng 1.0);
    checkb "p=0 always false" false (Rng.bernoulli rng 0.0)
  done

let test_pick_empty () =
  let rng = Rng.create ~seed:9 in
  Alcotest.check_raises "empty array" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick rng [||]));
  Alcotest.check_raises "empty list" (Invalid_argument "Rng.pick_list: empty list")
    (fun () -> ignore (Rng.pick_list rng []))

let test_shuffle_preserves () =
  let rng = Rng.create ~seed:10 in
  let arr = Array.init 100 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "same multiset" (Array.init 100 (fun i -> i))
    sorted

let test_sample_without_replacement () =
  let rng = Rng.create ~seed:11 in
  List.iter
    (fun (k, n) ->
      let s = Rng.sample_without_replacement rng ~k ~n in
      check Alcotest.int "size" k (Array.length s);
      let distinct = List.sort_uniq compare (Array.to_list s) in
      check Alcotest.int "distinct" k (List.length distinct);
      Array.iter (fun v -> checkb "in range" true (v >= 0 && v < n)) s)
    [ (0, 5); (1, 1); (3, 100); (50, 100); (100, 100); (10, 1000) ]

let mean_of f n =
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. f ()
  done;
  !acc /. float_of_int n

let test_uniform_sampler () =
  let rng = Rng.create ~seed:12 in
  let m = mean_of (fun () -> Sample.uniform rng ~lo:2. ~hi:4.) 20_000 in
  close ~eps:0.05 "uniform mean" 3.0 m

let test_normal_sampler () =
  let rng = Rng.create ~seed:13 in
  let m = mean_of (fun () -> Sample.normal rng ~mu:5. ~sigma:2.) 20_000 in
  close ~eps:0.1 "normal mean" 5.0 m

let test_pareto_support () =
  let rng = Rng.create ~seed:14 in
  for _ = 1 to 5_000 do
    checkb "pareto >= k" true (Sample.pareto rng ~alpha:1.5 ~k:2. >= 2.)
  done

let test_exponential_mean () =
  let rng = Rng.create ~seed:15 in
  let m = mean_of (fun () -> Sample.exponential rng ~rate:4.) 40_000 in
  close ~eps:0.02 "exponential mean 1/rate" 0.25 m

let test_binomial_mean () =
  let rng = Rng.create ~seed:16 in
  let m =
    mean_of (fun () -> float_of_int (Sample.binomial rng ~n:10 ~p:0.3)) 20_000
  in
  close ~eps:0.1 "binomial mean np" 3.0 m

let test_binomial_bounds () =
  let rng = Rng.create ~seed:17 in
  for _ = 1 to 1_000 do
    let v = Sample.binomial rng ~n:10 ~p:0.5 in
    checkb "in [0,n]" true (v >= 0 && v <= 10)
  done

let test_geometric_mean () =
  let rng = Rng.create ~seed:18 in
  let m = mean_of (fun () -> float_of_int (Sample.geometric rng ~p:0.25)) 40_000 in
  close ~eps:0.15 "geometric mean 1/p" 4.0 m

let test_lognormal_positive () =
  let rng = Rng.create ~seed:19 in
  for _ = 1 to 2_000 do
    checkb "positive" true (Sample.lognormal rng ~mu:0. ~sigma:1. > 0.)
  done

let test_zipf () =
  let rng = Rng.create ~seed:20 in
  let z = Sample.Zipf.create ~n:100 ~s:1.0 in
  Alcotest.check Alcotest.int "support" 100 (Sample.Zipf.support z);
  let counts = Array.make 101 0 in
  for _ = 1 to 50_000 do
    let r = Sample.Zipf.draw z rng in
    checkb "rank in range" true (r >= 1 && r <= 100);
    counts.(r) <- counts.(r) + 1
  done;
  checkb "rank 1 dominates rank 50" true (counts.(1) > 5 * counts.(50))

let test_zipf_uniform_exponent () =
  let rng = Rng.create ~seed:21 in
  let z = Sample.Zipf.create ~n:10 ~s:0. in
  let counts = Array.make 11 0 in
  for _ = 1 to 20_000 do
    counts.(Sample.Zipf.draw z rng) <- counts.(Sample.Zipf.draw z rng) + 1
  done;
  checkb "s=0 is roughly uniform" true
    (Array.for_all (fun c -> c = 0 || (c > 1_200 && c < 2_800)) counts)

(* --- Known-answer vectors ------------------------------------------------- *)

(* A fixed script of draws, one line per operation.  The expected lines
   are the generator's reference output, so a change of state layout or
   draw code that moved any stream by one bit fails here, not only in the
   seeded experiments downstream. *)
let transcript seed =
  let rng = Rng.create ~seed in
  let lines = ref [] in
  let line label n draw =
    let b = Buffer.create 64 in
    Buffer.add_string b label;
    for _ = 1 to n do
      Buffer.add_char b ' ';
      Buffer.add_string b (draw ())
    done;
    lines := Buffer.contents b :: !lines
  in
  let hex64 r () = Printf.sprintf "%016Lx" (Rng.bits64 r) in
  let bit b = if b then "1" else "0" in
  let ints a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
  line "bits64:" 3 (hex64 rng);
  List.iter
    (fun n ->
      line (Printf.sprintf "int %d:" n) 3 (fun () -> string_of_int (Rng.int rng n)))
    [ 1; 2; 3; 7; 1 lsl 30; max_int ];
  line "float:" 2 (fun () -> Printf.sprintf "%h" (Rng.float rng));
  line "bool:" 8 (fun () -> bit (Rng.bool rng));
  line "bernoulli:" 8 (fun () -> bit (Rng.bernoulli rng 0.3));
  let child = Rng.split rng in
  line "split child:" 2 (hex64 child);
  line "split parent:" 1 (hex64 rng);
  let snap = Rng.copy rng in
  line "copy:" 1 (hex64 snap);
  line "after copy:" 1 (hex64 rng);
  let arr = Array.init 10 Fun.id in
  Rng.shuffle rng arr;
  line "shuffle:" 1 (fun () -> ints arr);
  line "sample 3/100:" 1 (fun () -> ints (Rng.sample_without_replacement rng ~k:3 ~n:100));
  line "sample 6/10:" 1 (fun () -> ints (Rng.sample_without_replacement rng ~k:6 ~n:10));
  (* Int shuffles at a storm hop's reference count and at bench micro's
     size, each with the draw that follows it. *)
  List.iter
    (fun n ->
      let arr = Array.init n Fun.id in
      Rng.shuffle_ints rng arr;
      line (Printf.sprintf "int shuffle %d:" n) 1 (fun () -> ints arr);
      line (Printf.sprintf "after int shuffle %d:" n) 1 (hex64 rng))
    [ 39; 64 ];
  List.rev !lines

let known_answers =
  [
    ( 0,
      [
        "bits64: 53175d61490b23df 61da6f3dc380d507 5c0fdf91ec9a7bfc";
        "int 1: 0 0 0";
        "int 2: 0 0 0";
        "int 3: 2 1 2";
        "int 7: 0 0 6";
        "int 1073741824: 927278525 876544298 204203824";
        "int 4611686018427387903: 1508576268009700774 1859016182403580472 1277412586891869943";
        "float: 0x1.0b60a9265d628p-3 0x1.4a7d6100c748p-5";
        "bool: 1 1 1 1 1 0 0 0";
        "bernoulli: 0 0 0 0 1 0 1 0";
        "split child: 599a00884f3235e6 22100ce18387e1a8";
        "split parent: 9064494b8287afb9";
        "copy: 4c04974c6c1b4767";
        "after copy: 4c04974c6c1b4767";
        "shuffle: 3 5 4 9 6 2 8 7 1 0";
        "sample 3/100: 97 31 72";
        "sample 6/10: 5 9 6 2 7 8";
        "int shuffle 39: 16 7 10 14 18 15 9 28 12 36 32 0 34 21 23 3 26 13 35 30 37 2 22 8 1 38 27 19 20 11 17 33 5 4 24 6 31 25 29";
        "after int shuffle 39: 5563f86ebcb362a7";
        "int shuffle 64: 0 8 20 54 2 57 62 24 32 4 42 9 55 44 56 22 43 41 51 1 40 46 16 50 63 53 15 36 7 33 58 45 38 11 17 26 3 37 27 28 49 59 12 5 14 18 39 23 35 29 30 25 47 60 13 48 61 34 31 52 10 21 19 6";
        "after int shuffle 64: 6ccfa03289f61cea";
      ] );
    ( 42,
      [
        "bits64: d0764d4f4476689f 519e4174576f3791 fbe07cfb0c24ed8c";
        "int 1: 0 0 0";
        "int 2: 0 0 1";
        "int 3: 1 1 1";
        "int 7: 5 0 3";
        "int 1073741824: 353199846 227951471 1005860911";
        "int 4611686018427387903: 2517998271202591834 981414017452057291 232099460311418335";
        "float: 0x1.273cf57703ebap-1 0x1.de132e2789206p-2";
        "bool: 0 1 1 0 1 0 0 1";
        "bernoulli: 0 0 1 0 0 1 0 0";
        "split child: 956e02d25c78b270 3573965295bd68b8";
        "split parent: 680386963ebb4053";
        "copy: 89eb358fd9821a96";
        "after copy: 89eb358fd9821a96";
        "shuffle: 1 6 3 8 2 0 5 4 9 7";
        "sample 3/100: 69 28 94";
        "sample 6/10: 5 0 7 4 2 6";
        "int shuffle 39: 10 22 36 20 8 18 17 16 0 25 5 2 1 9 37 14 35 21 33 19 12 29 7 28 30 23 26 38 6 13 15 24 27 11 4 3 32 34 31";
        "after int shuffle 39: f179b57df79936d2";
        "int shuffle 64: 58 30 33 45 25 46 52 53 2 38 18 21 44 31 22 59 29 10 7 23 17 34 61 37 55 5 27 1 26 15 12 50 13 36 47 19 20 14 24 40 42 16 56 60 48 54 62 35 28 0 4 49 6 32 39 57 51 63 8 11 9 41 3 43";
        "after int shuffle 64: 01f4e3a543afc97d";
      ] );
    ( 20050830,
      [
        "bits64: ffd65d17716314f6 5b8889543f55f893 227b41970f30c6cb";
        "int 1: 0 0 0";
        "int 2: 1 0 1";
        "int 3: 2 2 2";
        "int 7: 1 3 5";
        "int 1073741824: 16051520 132309242 374663580";
        "int 4611686018427387903: 2174311238406219433 3805889466161551989 2359077924206967606";
        "float: 0x1.5a4cae6af6f32p-1 0x1.c32ffe5927f6p-1";
        "bool: 1 0 1 0 0 1 1 0";
        "bernoulli: 1 0 1 0 0 1 0 1";
        "split child: e897fa3561cfd394 b0973488be1c4287";
        "split parent: 01319ea1cc3487a0";
        "copy: 8a08e1bdc8e1663f";
        "after copy: 8a08e1bdc8e1663f";
        "shuffle: 8 7 6 2 1 9 0 5 3 4";
        "sample 3/100: 28 56 81";
        "sample 6/10: 4 5 6 1 3 7";
        "int shuffle 39: 26 29 14 16 28 10 12 24 8 5 31 7 18 13 22 20 11 36 33 25 30 27 21 6 0 15 19 1 37 17 34 3 35 23 4 2 38 9 32";
        "after int shuffle 39: d853b282dacd4ba7";
        "int shuffle 64: 49 25 23 12 43 58 21 2 41 50 56 10 57 37 11 27 48 36 29 39 42 47 7 26 35 60 1 19 15 51 4 0 8 6 28 9 5 59 38 18 44 52 55 22 62 14 3 16 53 63 61 13 54 46 17 24 34 31 45 20 40 33 32 30";
        "after int shuffle 64: 744aa9c957945cad";
      ] );
  ]

let test_known_answers () =
  List.iter
    (fun (seed, expected) ->
      check (Alcotest.list Alcotest.string) (Printf.sprintf "seed %d" seed) expected
        (transcript seed))
    known_answers

let test_draws_allocation_free () =
  let rng = Rng.create ~seed:23 in
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 100_000 do
    sink := !sink + Rng.int rng (1 + (i land 1023));
    if Rng.bool rng then incr sink;
    if Rng.bernoulli rng 0.3 then incr sink
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !sink);
  if words >= 100. then
    Alcotest.failf "100k int/bool/bernoulli draws allocated %.0f minor words" words;
  let arr = Array.init 64 Fun.id in
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Rng.shuffle_ints rng arr
  done;
  let words = Gc.minor_words () -. before in
  if words > 0. then
    Alcotest.failf "1k int shuffles of 64 allocated %.0f minor words" words

let qcheck_float_unit =
  QCheck.Test.make ~name:"Rng.float stays in [0,1)" ~count:500
    QCheck.small_signed_int (fun seed ->
      let rng = Rng.create ~seed in
      let x = Rng.float rng in
      x >= 0. && x < 1.)

let qcheck_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int in [0,n)" ~count:500
    QCheck.(pair small_signed_int (int_range 1 10_000))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng n in
      v >= 0 && v < n)

(* The int shuffles give the generic shuffle's permutation and leave
   the generator in the same state, checked through the next four draws:
   the first output reads only s0 and s3, and every word reaches an
   output within three steps.  The prefix form shuffles the first [n]
   slots of a longer buffer holding other values past them: the prefix
   ends as a fresh [n]-array would and the tail is untouched. *)
let qcheck_shuffle_ints_matches_shuffle =
  QCheck.Test.make ~name:"Rng.shuffle_ints = Rng.shuffle, draw for draw" ~count:300
    QCheck.(triple int (int_range 0 200) (int_range 0 40))
    (fun (seed, n, extra) ->
      let generic = Rng.create ~seed and ints = Rng.create ~seed in
      let prefix = Rng.create ~seed in
      let a = Array.init n Fun.id and b = Array.init n Fun.id in
      let buf = Array.init (n + extra) (fun i -> if i < n then i else -i) in
      Rng.shuffle generic a;
      Rng.shuffle_ints ints b;
      Rng.shuffle_ints_prefix prefix buf ~len:n;
      let next rng = List.init 4 (fun _ -> Rng.bits64 rng) in
      let after = next generic in
      a = b
      && after = next ints
      && Array.sub buf 0 n = a
      && Array.sub buf n extra = Array.init extra (fun i -> -(n + i))
      && after = next prefix)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "split diverges" `Quick test_split_diverges;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int bound one" `Quick test_int_one;
    Alcotest.test_case "int invalid bound" `Quick test_int_invalid;
    Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "pick empty" `Quick test_pick_empty;
    Alcotest.test_case "shuffle preserves multiset" `Quick test_shuffle_preserves;
    Alcotest.test_case "sampling w/o replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "uniform mean" `Quick test_uniform_sampler;
    Alcotest.test_case "normal mean" `Quick test_normal_sampler;
    Alcotest.test_case "pareto support" `Quick test_pareto_support;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "binomial mean" `Quick test_binomial_mean;
    Alcotest.test_case "binomial bounds" `Quick test_binomial_bounds;
    Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
    Alcotest.test_case "lognormal positive" `Quick test_lognormal_positive;
    Alcotest.test_case "zipf skew" `Quick test_zipf;
    Alcotest.test_case "zipf uniform exponent" `Quick test_zipf_uniform_exponent;
    Alcotest.test_case "known-answer streams" `Quick test_known_answers;
    Alcotest.test_case "draws allocation-free" `Quick test_draws_allocation_free;
    QCheck_alcotest.to_alcotest qcheck_float_unit;
    QCheck_alcotest.to_alcotest qcheck_int_in_bounds;
    QCheck_alcotest.to_alcotest qcheck_shuffle_ints_matches_shuffle;
  ]
