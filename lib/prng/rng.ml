(* The four 64-bit xoshiro words live unboxed in one 32-byte buffer,
   s0..s3 at byte offsets 0, 8, 16 and 24.  The primitives below are the
   unchecked forms of the stdlib's [Bytes.get_int64_ne]/[set_int64_ne];
   declaring them here lets the compiler keep each word in a register
   instead of allocating an [Int64] box per read, so a draw allocates
   nothing.  They skip the bounds check: [t] is abstract and only
   [of_words] and [copy] make one, always 32 bytes long. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  t

(* splitmix64 step, used only to expand seeds into full xoshiro states. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Expand a 64-bit value into a state; xoshiro must not start from the
   all-zero state, and splitmix64 outputs are zero only for one specific
   input, so [fallback] is a defensive replacement. *)
let expand seed ~fallback =
  let state = ref seed in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    of_words fallback (Int64.add fallback 1L) (Int64.add fallback 2L)
      (Int64.add fallback 3L)
  else of_words s0 s1 s2 s3

let create ~seed = expand (Int64.of_int seed) ~fallback:1L
let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256++ step from state (s0, s1, s2, s3): [output] is its
   draw and [next0] .. [next3] the words of the successor state.  Each
   is one inlined [int64] expression, so a caller that holds the words
   in local variables keeps them unboxed across any number of steps. *)
let[@inline] output s0 s3 = Int64.(add (rotl (add s0 s3) 23) s0)
let[@inline] next0 s0 s1 s3 = Int64.(logxor s0 (logxor s3 s1))
let[@inline] next1 s0 s1 s2 = Int64.(logxor s1 (logxor s2 s0))
let[@inline] next2 s0 s1 s2 = Int64.(logxor (logxor s2 s0) (shift_left s1 17))
let[@inline] next3 s1 s3 = rotl (Int64.logxor s3 s1) 45

(* One step on the buffer.  Inlined into every draw, so its words stay
   unboxed from load to store. *)
let[@inline] bits64 t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  set t 0 (next0 s0 s1 s3);
  set t 8 (next1 s0 s1 s2);
  set t 16 (next2 s0 s1 s2);
  set t 24 (next3 s1 s3);
  output s0 s3

let split t = expand (bits64 t) ~fallback:5L

(* Top 53 bits give a uniform dyadic rational in [0, 1). *)
let[@inline] float t =
  Int64.to_float (Int64.shift_right_logical (bits64 t) 11) *. 0x1p-53

(* Rejection sampling over the smallest covering power of two keeps a
   bounded draw unbiased for every bound [n]: a candidate is the top 62
   bits of a step under [cover (n - 1)], redrawn while it is >= [n].
   [cover m] is [m] with every bit below its top bit set: the least
   2^k - 1 >= m. *)
let[@inline] cover m =
  let m = m lor (m lsr 1) in
  let m = m lor (m lsr 2) in
  let m = m lor (m lsr 4) in
  let m = m lor (m lsr 8) in
  let m = m lor (m lsr 16) in
  m lor (m lsr 32)

let[@inline] candidate bits mask = Int64.to_int (Int64.shift_right_logical bits 2) land mask

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  if n = 1 then 0
  else begin
    let mask = cover (n - 1) in
    let v = ref n in
    while !v >= n do
      v := candidate (bits64 t) mask
    done;
    !v
  end

let bool t = Int64.logand (bits64 t) 1L = 1L
let bernoulli t p = float t < p

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* [shuffle] specialised to ints, draw for draw: the same [int t (i + 1)]
   per position, with the four words held in local variables from the
   first draw to the last and written back once, and swaps that are
   plain stores.  Only the first [len] slots take part, so a caller can
   shuffle a prefix of a buffer it keeps. *)
let shuffle_ints_prefix t (arr : int array) ~len =
  if len < 0 || len > Array.length arr then invalid_arg "Rng.shuffle_ints_prefix: bad len";
  let s0 = ref (get t 0) and s1 = ref (get t 8) in
  let s2 = ref (get t 16) and s3 = ref (get t 24) in
  for i = len - 1 downto 1 do
    let mask = cover i in
    let j = ref (i + 1) in
    while !j > i do
      let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
      s0 := next0 a b d;
      s1 := next1 a b c;
      s2 := next2 a b c;
      s3 := next3 b d;
      j := candidate (output a d) mask
    done;
    let j = !j in
    let x = Array.unsafe_get arr i in
    Array.unsafe_set arr i (Array.unsafe_get arr j);
    Array.unsafe_set arr j x
  done;
  set t 0 !s0;
  set t 8 !s1;
  set t 16 !s2;
  set t 24 !s3

let shuffle_ints t arr = shuffle_ints_prefix t arr ~len:(Array.length arr)

let sample_without_replacement t ~k ~n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  if 2 * k >= n then begin
    (* Dense case: shuffle a full index array and take a prefix. *)
    let all = Array.init n (fun i -> i) in
    shuffle_ints t all;
    Array.sub all 0 k
  end
  else begin
    (* Sparse case: rejection into a hash set avoids O(n) work. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int t n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end
