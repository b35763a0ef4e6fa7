(* Tests for Pgrid_keyspace: keys, paths, the codec and dyadic covers. *)

module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Codec = Pgrid_keyspace.Codec
module Dyadic = Pgrid_keyspace.Dyadic

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- keys --------------------------------------------------------------- *)

let test_key_float_roundtrip () =
  List.iter
    (fun x ->
      let back = Key.to_float (Key.of_float x) in
      if Float.abs (back -. x) > 1e-12 then
        Alcotest.failf "roundtrip %f -> %f" x back)
    [ 0.; 0.25; 0.5; 0.75; 0.999999 ]

let test_key_of_float_clamps () =
  checki "negative clamps to 0" 0 (Key.to_int (Key.of_float (-3.)));
  checkb "above one clamps below 2^bits" true
    (Key.to_int (Key.of_float 7.) < 1 lsl Key.bits)

let test_key_of_int_bounds () =
  Alcotest.check_raises "negative rejected" (Invalid_argument "Key.of_int: out of range")
    (fun () -> ignore (Key.of_int (-1)));
  Alcotest.check_raises "too large rejected" (Invalid_argument "Key.of_int: out of range")
    (fun () -> ignore (Key.of_int (1 lsl Key.bits)))

let test_key_bits_msb () =
  (* 0.5 = 0.1000...b, 0.25 = 0.0100...b *)
  checki "bit 0 of 1/2" 1 (Key.bit (Key.of_float 0.5) 0);
  checki "bit 1 of 1/2" 0 (Key.bit (Key.of_float 0.5) 1);
  checki "bit 0 of 1/4" 0 (Key.bit (Key.of_float 0.25) 0);
  checki "bit 1 of 1/4" 1 (Key.bit (Key.of_float 0.25) 1)

(* [Path.msb] against a bit loop: every power of two and its neighbours
   up to [max_int], and a sweep of small values. *)
let test_path_msb () =
  let loop x =
    let r = ref 0 in
    while x lsr (!r + 1) > 0 do
      incr r
    done;
    !r
  in
  for k = 0 to 61 do
    let p = 1 lsl k in
    List.iter
      (fun x -> if x > 0 then checki (Printf.sprintf "msb %d" x) (loop x) (Path.msb x))
      [ p - 1; p; p + 1; p lor (p - 1) ]
  done;
  checki "msb max_int" 61 (Path.msb max_int);
  for x = 1 to 70_000 do
    if Path.msb x <> loop x then Alcotest.failf "msb %d" x
  done

let test_key_to_string () =
  let s = Key.to_string (Key.of_float 0.5) in
  checki "length" Key.bits (String.length s);
  checkb "leading one" true (s.[0] = '1');
  checkb "rest zero" true (String.for_all (fun c -> c = '0') (String.sub s 1 (Key.bits - 1)))

let qcheck_key_order =
  QCheck.Test.make ~name:"key order matches float order" ~count:500
    QCheck.(pair (float_bound_exclusive 1.) (float_bound_exclusive 1.))
    (fun (a, b) ->
      let ka = Key.of_float a and kb = Key.of_float b in
      if a < b then Key.compare ka kb <= 0 else Key.compare kb ka <= 0)

let qcheck_key_random_range =
  QCheck.Test.make ~name:"random keys stay in range" ~count:200
    QCheck.small_signed_int (fun seed ->
      let rng = Rng.create ~seed in
      let k = Key.random rng in
      Key.to_int k >= 0 && Key.to_int k < 1 lsl Key.bits)

(* --- paths -------------------------------------------------------------- *)

let test_path_basics () =
  let p = Path.of_string "0110" in
  checki "length" 4 (Path.length p);
  checki "bit 0" 0 (Path.bit p 0);
  checki "bit 1" 1 (Path.bit p 1);
  Alcotest.check Alcotest.string "to_string" "0110" (Path.to_string p);
  Alcotest.check Alcotest.string "parent" "011" (Path.to_string (Path.parent p));
  Alcotest.check Alcotest.string "sibling" "0111" (Path.to_string (Path.sibling p));
  Alcotest.check Alcotest.string "prefix" "01" (Path.to_string (Path.prefix p 2))

let test_path_root () =
  checki "root length" 0 (Path.length Path.root);
  Alcotest.check_raises "root parent" (Invalid_argument "Path.parent: root has no parent")
    (fun () -> ignore (Path.parent Path.root));
  checkb "root matches any key" true (Path.matches_key Path.root (Key.of_float 0.77))

let test_path_extend_invalid () =
  Alcotest.check_raises "bad bit" (Invalid_argument "Path.extend: bit must be 0 or 1")
    (fun () -> ignore (Path.extend Path.root 2))

let test_path_complement_at () =
  let p = Path.of_string "0110" in
  Alcotest.check Alcotest.string "complement at 0" "1"
    (Path.to_string (Path.complement_at p 0));
  Alcotest.check Alcotest.string "complement at 2" "010"
    (Path.to_string (Path.complement_at p 2))

let test_path_prefix_relation () =
  let p = Path.of_string "01" and q = Path.of_string "0110" in
  checkb "p prefix of q" true (Path.is_prefix_of ~prefix:p q);
  checkb "q not prefix of p" false (Path.is_prefix_of ~prefix:q p);
  checkb "self prefix" true (Path.is_prefix_of ~prefix:p p)

let test_path_common_prefix () =
  checki "common prefix" 2
    (Path.common_prefix_length (Path.of_string "0110") (Path.of_string "0101"));
  checki "disjoint at root" 0
    (Path.common_prefix_length (Path.of_string "1") (Path.of_string "0"))

(* The bit-by-bit loop the O(1) [Path.common_prefix_length] replaced. *)
let common_prefix_by_bits a b =
  let n = min (Path.length a) (Path.length b) in
  let rec go i = if i >= n then n else if Path.bit a i <> Path.bit b i then i else go (i + 1) in
  go 0

(* Prefixes of every length pair 0..Key.bits of two keys: one a copy of
   the other with one bit flipped (a chosen first difference), and one
   unrelated. *)
let qcheck_common_prefix_length =
  QCheck.Test.make ~name:"O(1) common_prefix_length = bit-by-bit loop" ~count:50
    QCheck.small_signed_int (fun seed ->
      let rng = Rng.create ~seed in
      let a = Key.random rng in
      let flipped = Key.of_int (Key.to_int a lxor (1 lsl Rng.int rng Key.bits)) in
      let ok = ref true in
      List.iter
        (fun b ->
          for la = 0 to Key.bits do
            for lb = 0 to Key.bits do
              let pa = Path.key_prefix a la and pb = Path.key_prefix b lb in
              if Path.common_prefix_length pa pb <> common_prefix_by_bits pa pb then ok := false
            done
          done)
        [ a; flipped; Key.random rng ];
      !ok)

let test_path_interval () =
  let p = Path.of_string "10" in
  let lo, hi = Path.interval p in
  Alcotest.check (Alcotest.float 1e-12) "lo" 0.5 lo;
  Alcotest.check (Alcotest.float 1e-12) "hi" 0.75 hi;
  Alcotest.check (Alcotest.float 1e-12) "width" 0.25 (Path.width p)

let test_path_mid () =
  let p = Path.of_string "10" in
  Alcotest.check (Alcotest.float 1e-12) "midpoint" 0.625 (Key.to_float (Path.mid p))

let test_path_overlap_fraction () =
  let parent = Path.of_string "0" and child = Path.of_string "010" in
  Alcotest.check (Alcotest.float 1e-12) "covering partition counts fully" 1.
    (Path.overlap_fraction ~of_:child parent);
  Alcotest.check (Alcotest.float 1e-12) "peer above contributes fractionally" 0.25
    (Path.overlap_fraction ~of_:parent child);
  Alcotest.check (Alcotest.float 1e-12) "disjoint" 0.
    (Path.overlap_fraction ~of_:(Path.of_string "1") (Path.of_string "00"))

let test_path_compare_order () =
  let sorted =
    List.sort Path.compare
      [ Path.of_string "1"; Path.of_string "01"; Path.of_string "0"; Path.of_string "00" ]
  in
  Alcotest.check (Alcotest.list Alcotest.string) "lexicographic, prefix first"
    [ "0"; "00"; "01"; "1" ]
    (List.map Path.to_string sorted)

let test_path_enumerate () =
  let leaves = Path.enumerate_leaves 3 in
  checki "count" 8 (List.length leaves);
  Alcotest.check Alcotest.string "first" "000" (Path.to_string (List.nth leaves 0));
  Alcotest.check Alcotest.string "last" "111" (Path.to_string (List.nth leaves 7));
  checkb "key-ordered" true
    (List.for_all2
       (fun a b -> Path.compare a b < 0)
       (List.filteri (fun i _ -> i < 7) leaves)
       (List.tl leaves))

let qcheck_path_string_roundtrip =
  let bitstring = QCheck.string_gen_of_size (QCheck.Gen.int_bound 20)
      (QCheck.Gen.map (fun b -> if b then '1' else '0') QCheck.Gen.bool)
  in
  QCheck.Test.make ~name:"path of_string/to_string roundtrip" ~count:300 bitstring
    (fun s -> Path.to_string (Path.of_string s) = s)

let qcheck_matches_key_iff_interval =
  QCheck.Test.make ~name:"matches_key iff key in dyadic interval" ~count:500
    QCheck.(triple small_signed_int (int_bound 20) (float_bound_exclusive 1.))
    (fun (seed, depth, x) ->
      let rng = Rng.create ~seed in
      let key = Key.random rng in
      let path = Path.key_prefix (Key.of_float x) depth in
      let lo, hi = Path.interval_keys path in
      Path.matches_key path key = (Key.to_int key >= lo && Key.to_int key < hi))

let qcheck_key_prefix_matches =
  QCheck.Test.make ~name:"key_prefix path always matches its key" ~count:500
    QCheck.(pair small_signed_int (int_bound Key.bits))
    (fun (seed, depth) ->
      let rng = Rng.create ~seed in
      let key = Key.random rng in
      Path.matches_key (Path.key_prefix key depth) key)

let test_path_code_injective () =
  (* Every path of length 0..6, pairwise: equal codes iff equal paths. *)
  let paths = List.concat_map Path.enumerate_leaves [ 0; 1; 2; 3; 4; 5; 6 ] in
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          if (Path.code p = Path.code q) <> Path.equal p q then
            Alcotest.failf "code collision: %s vs %s" (Path.to_string p) (Path.to_string q))
        paths)
    paths

let qcheck_key_prefix_code =
  QCheck.Test.make ~name:"code of key_prefix is the documented formula" ~count:500
    QCheck.(pair small_signed_int (int_bound Key.bits))
    (fun (seed, depth) ->
      let key = Key.random (Rng.create ~seed) in
      Path.code (Path.key_prefix key depth)
      = (Key.to_int key lsr (Key.bits - depth)) lor (1 lsl depth))

let qcheck_path_compare_is_string_order =
  (* A shared stem plus short tails, so prefixes, extensions and equal
     paths come up often; stems run to the full key width. *)
  let bits n = QCheck.Gen.(string_size ~gen:(map (fun b -> if b then '1' else '0') bool) n) in
  let gen =
    QCheck.Gen.(
      int_bound (Key.bits - 4) >>= fun stem ->
      triple (bits (return stem)) (bits (int_bound 4)) (bits (int_bound 4)))
  in
  QCheck.Test.make ~name:"path compare has the sign of string compare" ~count:1000
    (QCheck.make ~print:(fun (s, x, y) -> s ^ " | " ^ x ^ " | " ^ y) gen)
    (fun (stem, x, y) ->
      let a = stem ^ x and b = stem ^ y in
      let sign c = Int.compare c 0 in
      sign (Path.compare (Path.of_string a) (Path.of_string b)) = sign (String.compare a b))

(* --- codec -------------------------------------------------------------- *)

let test_codec_order () =
  let words = [ "alpha"; "beta"; "delta"; "gamma"; "zeta" ] in
  let keys = List.map Codec.of_string (List.sort compare words) in
  let rec ascending = function
    | a :: (b :: _ as rest) -> Key.compare a b <= 0 && ascending rest
    | _ -> true
  in
  checkb "byte order preserved" true (ascending keys)

let test_codec_case_folding () =
  checkb "of_term folds case" true
    (Key.equal (Codec.of_term "Hello") (Codec.of_term "hELLO"))

let test_codec_float_in () =
  let k = Codec.of_float_in ~lo:10. ~hi:20. 15. in
  Alcotest.check (Alcotest.float 1e-9) "midpoint maps to 1/2" 0.5 (Key.to_float k)

let test_codec_range_prefix () =
  let p = Codec.prefix_of_string_range ~lo:"apple" ~hi:"apricot" in
  checkb "covers both bounds" true
    (Path.matches_key p (Codec.of_string "apple")
    && Path.matches_key p (Codec.of_string "apricot"))

let qcheck_codec_monotone =
  QCheck.Test.make ~name:"codec preserves string order" ~count:500
    QCheck.(pair printable_string printable_string)
    (fun (a, b) ->
      let ka = Codec.of_string a and kb = Codec.of_string b in
      if compare a b <= 0 then Key.compare ka kb <= 0 else Key.compare kb ka <= 0)

(* --- dyadic covers ------------------------------------------------------- *)

let test_dyadic_small () =
  let lo = Key.of_float 0.30 and hi = Key.of_float 0.55 in
  let cover = Dyadic.cover ~max_depth:6 ~lo ~hi () in
  checkb "nonempty" true (cover <> []);
  checkb "at most 2*depth+1 pieces" true (List.length cover <= 13);
  checkb "covers lo" true (Dyadic.covers_key cover lo);
  checkb "covers hi" true (Dyadic.covers_key cover hi);
  checkb "covers middle" true (Dyadic.covers_key cover (Key.of_float 0.4))

let test_dyadic_point () =
  let k = Key.of_float 0.3333 in
  let cover = Dyadic.cover ~lo:k ~hi:k () in
  checki "single key needs a single path" 1 (List.length cover);
  checkb "covers it" true (Dyadic.covers_key cover k)

let test_dyadic_whole_space () =
  let cover = Dyadic.cover ~lo:Key.zero ~hi:(Key.of_int ((1 lsl Key.bits) - 1)) () in
  checki "root suffices" 1 (List.length cover);
  checki "root path" 0 (Path.length (List.hd cover))

let test_dyadic_invalid () =
  Alcotest.check_raises "lo > hi" (Invalid_argument "Dyadic.cover: lo must be <= hi")
    (fun () ->
      ignore (Dyadic.cover ~lo:(Key.of_float 0.9) ~hi:(Key.of_float 0.1) ()))

let qcheck_dyadic_complete =
  QCheck.Test.make ~name:"dyadic cover contains the whole range" ~count:200
    QCheck.(triple (float_bound_exclusive 1.) (float_bound_exclusive 1.) (float_bound_exclusive 1.))
    (fun (a, b, x) ->
      let lo = Key.of_float (Float.min a b) and hi = Key.of_float (Float.max a b) in
      let cover = Dyadic.cover ~lo ~hi () in
      let probe =
        Key.of_float (Key.to_float lo +. (x *. (Key.to_float hi -. Key.to_float lo)))
      in
      Dyadic.covers_key cover probe)

let qcheck_dyadic_sorted_disjoint =
  QCheck.Test.make ~name:"dyadic cover pieces are sorted and disjoint" ~count:200
    QCheck.(pair (float_bound_exclusive 1.) (float_bound_exclusive 1.))
    (fun (a, b) ->
      let lo = Key.of_float (Float.min a b) and hi = Key.of_float (Float.max a b) in
      let cover = Dyadic.cover ~max_depth:24 ~lo ~hi () in
      let rec ok = function
        | p :: (q :: _ as rest) ->
          let _, p_hi = Path.interval_keys p in
          let q_lo, _ = Path.interval_keys q in
          p_hi <= q_lo && ok rest
        | _ -> true
      in
      ok cover)

let suite =
  [
    Alcotest.test_case "key float roundtrip" `Quick test_key_float_roundtrip;
    Alcotest.test_case "key of_float clamps" `Quick test_key_of_float_clamps;
    Alcotest.test_case "key of_int bounds" `Quick test_key_of_int_bounds;
    Alcotest.test_case "key MSB bit order" `Quick test_key_bits_msb;
    Alcotest.test_case "path msb = bit loop" `Quick test_path_msb;
    Alcotest.test_case "key to_string" `Quick test_key_to_string;
    Alcotest.test_case "path basics" `Quick test_path_basics;
    Alcotest.test_case "path root" `Quick test_path_root;
    Alcotest.test_case "path extend invalid" `Quick test_path_extend_invalid;
    Alcotest.test_case "path complement_at" `Quick test_path_complement_at;
    Alcotest.test_case "path prefix relation" `Quick test_path_prefix_relation;
    Alcotest.test_case "path common prefix" `Quick test_path_common_prefix;
    Alcotest.test_case "path interval" `Quick test_path_interval;
    Alcotest.test_case "path midpoint" `Quick test_path_mid;
    Alcotest.test_case "path overlap fraction" `Quick test_path_overlap_fraction;
    Alcotest.test_case "path compare order" `Quick test_path_compare_order;
    Alcotest.test_case "path enumerate leaves" `Quick test_path_enumerate;
    Alcotest.test_case "path code injective" `Quick test_path_code_injective;
    Alcotest.test_case "codec order" `Quick test_codec_order;
    Alcotest.test_case "codec case folding" `Quick test_codec_case_folding;
    Alcotest.test_case "codec numeric attributes" `Quick test_codec_float_in;
    Alcotest.test_case "codec range prefix" `Quick test_codec_range_prefix;
    Alcotest.test_case "dyadic small range" `Quick test_dyadic_small;
    Alcotest.test_case "dyadic single key" `Quick test_dyadic_point;
    Alcotest.test_case "dyadic whole space" `Quick test_dyadic_whole_space;
    Alcotest.test_case "dyadic invalid" `Quick test_dyadic_invalid;
    QCheck_alcotest.to_alcotest qcheck_key_order;
    QCheck_alcotest.to_alcotest qcheck_key_random_range;
    QCheck_alcotest.to_alcotest qcheck_path_string_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_matches_key_iff_interval;
    QCheck_alcotest.to_alcotest qcheck_key_prefix_matches;
    QCheck_alcotest.to_alcotest qcheck_common_prefix_length;
    QCheck_alcotest.to_alcotest qcheck_key_prefix_code;
    QCheck_alcotest.to_alcotest qcheck_path_compare_is_string_order;
    QCheck_alcotest.to_alcotest qcheck_codec_monotone;
    QCheck_alcotest.to_alcotest qcheck_dyadic_complete;
    QCheck_alcotest.to_alcotest qcheck_dyadic_sorted_disjoint;
  ]
