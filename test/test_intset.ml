(* Tests for Pgrid_core.Intset, the sorted-array integer set backing
   routing references and replica lists. *)

module Intset = Pgrid_core.Intset

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let check_elems = Alcotest.check (Alcotest.list Alcotest.int)

let test_empty () =
  let s = Intset.create () in
  checkb "is_empty" true (Intset.is_empty s);
  checki "cardinal" 0 (Intset.cardinal s);
  checkb "mem" false (Intset.mem s 3);
  check_elems "elements" [] (Intset.elements s);
  Intset.remove s 3;
  checki "remove on empty is a no-op" 0 (Intset.cardinal s)

let test_dedup_and_order () =
  let s = Intset.create () in
  List.iter (Intset.add s) [ 5; 1; 9; 5; 1; 7; 9; 9 ];
  checki "duplicates collapse" 4 (Intset.cardinal s);
  check_elems "sorted ascending" [ 1; 5; 7; 9 ] (Intset.elements s);
  checkb "mem present" true (Intset.mem s 7);
  checkb "mem absent" false (Intset.mem s 6)

let test_remove () =
  let s = Intset.of_list [ 3; 1; 4; 1; 5 ] in
  check_elems "of_list dedups and sorts" [ 1; 3; 4; 5 ] (Intset.elements s);
  Intset.remove s 3;
  Intset.remove s 42;
  check_elems "remove middle, ignore absent" [ 1; 4; 5 ] (Intset.elements s);
  Intset.remove s 1;
  Intset.remove s 5;
  check_elems "remove ends" [ 4 ] (Intset.elements s);
  Intset.clear s;
  checkb "clear empties" true (Intset.is_empty s)

let test_iter_fold () =
  let s = Intset.of_list [ 2; 8; 4 ] in
  let seen = ref [] in
  Intset.iter (fun x -> seen := x :: !seen) s;
  check_elems "iter ascending" [ 2; 4; 8 ] (List.rev !seen);
  checki "fold sums" 14 (Intset.fold ( + ) 0 s);
  checkb "exists" true (Intset.exists (fun x -> x > 7) s);
  checkb "exists negative" false (Intset.exists (fun x -> x > 8) s);
  Alcotest.check (Alcotest.array Alcotest.int) "to_array" [| 2; 4; 8 |]
    (Intset.to_array s)

let test_union_into () =
  let a = Intset.of_list [ 1; 3; 5 ] in
  let b = Intset.of_list [ 2; 3; 6 ] in
  Intset.union_into ~into:a b;
  check_elems "union merges" [ 1; 2; 3; 5; 6 ] (Intset.elements a);
  check_elems "source untouched" [ 2; 3; 6 ] (Intset.elements b);
  Intset.union_into ~into:a (Intset.create ());
  check_elems "union with empty is a no-op" [ 1; 2; 3; 5; 6 ] (Intset.elements a);
  let c = Intset.create () in
  Intset.union_into ~into:c b;
  check_elems "union into empty copies" [ 2; 3; 6 ] (Intset.elements c)

let test_union_into_subset_allocates_nothing () =
  let a = Intset.of_list (List.init 100 Fun.id) in
  let b = Intset.of_list (List.init 50 (fun i -> 2 * i)) in
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Intset.union_into ~into:a b
  done;
  let words = Gc.minor_words () -. before in
  if words >= 100. then
    Alcotest.failf "1000 unions of a subset allocated %.0f minor words" words;
  Alcotest.(check int) "still 100 members" 100 (Intset.cardinal a)

(* Model-based: any interleaving of adds/removes agrees with a sorted
   deduplicated list model. *)
let qcheck_model =
  QCheck.Test.make ~name:"intset agrees with a list model" ~count:200
    QCheck.(list (pair bool (int_bound 30)))
    (fun ops ->
      let s = Intset.create () in
      let model =
        List.fold_left
          (fun model (add, x) ->
            if add then begin
              Intset.add s x;
              if List.mem x model then model else x :: model
            end
            else begin
              Intset.remove s x;
              List.filter (fun y -> y <> x) model
            end)
          [] ops
      in
      Intset.elements s = List.sort compare model
      && Intset.cardinal s = List.length model
      && List.for_all (Intset.mem s) model)

let qcheck_union_model =
  QCheck.Test.make ~name:"union_into agrees with sorted-merge model" ~count:200
    QCheck.(pair (list (int_bound 40)) (list (int_bound 40)))
    (fun (xs, ys) ->
      let a = Intset.of_list xs and b = Intset.of_list ys in
      Intset.union_into ~into:a b;
      Intset.elements a = List.sort_uniq compare (xs @ ys))

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "dedup and ordering" `Quick test_dedup_and_order;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "iter / fold / exists" `Quick test_iter_fold;
    Alcotest.test_case "union_into" `Quick test_union_into;
    Alcotest.test_case "union_into subset allocates nothing" `Quick
      test_union_into_subset_allocates_nothing;
    QCheck_alcotest.to_alcotest qcheck_model;
    QCheck_alcotest.to_alcotest qcheck_union_model;
  ]
