(* FIPS 180-4 SHA-256, performance-engineered for flambda-less ocamlopt.

   The seed implementation ([Sha256_ref], kept as a differential-testing
   oracle) runs the compression function on boxed [Int32]; this one runs it
   on unboxed 64-bit words.  Three ideas carry the speedup:

   - The whole compression function is emitted in branch-free SSA form (by
     [tools/gen_sha256_kernel.py]): every schedule word and round
     intermediate is a fresh [Int64] [let].  ocamlopt's boxed-number
     unboxing then keeps the entire body in registers and stack slots —
     a single conditional would force values live across it back into
     heap boxes.

   - Words are kept in "doubled" form [y = x lor (x lsl 32)] (low and high
     halves both hold the 32-bit value), so every 32-bit rotation is ONE
     64-bit logical shift ([rotr32 x n = (y lsr n) land mask]) instead of
     two shifts and an or, and the bitwise ch/maj identities remain valid
     in both halves.

   - Sums are allowed to carry garbage into the high half: addition only
     propagates carries upward and xor/and are bitwise, so the low 32 bits
     stay exact.  The [land 0xFFFFFFFF] folded into the next doubling
     restores canonical form; nothing else masks.

   [update_bytes]/[update_sub] stream whole blocks straight from the
   caller's buffer; only a trailing partial block is copied into the
   context.

   On an x86-64 CPU whose CPUID advertises the SHA extensions (plus SSE4.1
   and SSSE3), every block goes instead to the C kernel in
   [sha256_stubs.c], which compresses a whole run of blocks per call.  The
   choice is made once, when this module is initialised; the OCaml kernel
   below is the only one that runs anywhere else. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let ( &&& ) = Int64.logand
let ( ^^^ ) = Int64.logxor
let ( +% ) = Int64.add
let ( ||| ) = Int64.logor
let ( <<< ) = Int64.shift_left
let ( >>> ) = Int64.shift_right_logical
let m32 = 0xFFFFFFFFL
let mh32 = 0xFFFFFFFF00000000L

external native_available : unit -> bool = "fb_sha256_native_available"
  [@@noalloc]

(* [native_blocks h b pos n] compresses the [n] blocks at [b.[pos]]. *)
external native_blocks : int array -> Bytes.t -> int -> int -> unit
  = "fb_sha256_native_blocks" [@@noalloc]

let native = native_available ()

type ctx = {
  h : int array;            (* eight working hash words, canonical 32-bit *)
  block : Bytes.t;          (* 64-byte input block being filled *)
  mutable fill : int;       (* bytes currently in [block] *)
  mutable total : int;      (* total message length in bytes *)
  use_native : bool;        (* compress with [native_blocks] *)
}

let make use_native =
  { h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
         0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    block = Bytes.create 64;
    fill = 0;
    total = 0;
    use_native }

let init () = make native
let init_ocaml () = make false

(* GENERATED-KERNEL-BEGIN: tools/gen_sha256_kernel.py *)
let compress_block (h : int array) (b : Bytes.t) pos =
  let q0 = bswap64 (get64u b (pos + 0)) in
  let w0 = q0 >>> 32 in
  let w1 = q0 &&& m32 in
  let dw0 = w0 ||| (q0 &&& mh32) in
  let dw1 = w1 ||| (q0 <<< 32) in
  let q1 = bswap64 (get64u b (pos + 8)) in
  let w2 = q1 >>> 32 in
  let w3 = q1 &&& m32 in
  let dw2 = w2 ||| (q1 &&& mh32) in
  let dw3 = w3 ||| (q1 <<< 32) in
  let q2 = bswap64 (get64u b (pos + 16)) in
  let w4 = q2 >>> 32 in
  let w5 = q2 &&& m32 in
  let dw4 = w4 ||| (q2 &&& mh32) in
  let dw5 = w5 ||| (q2 <<< 32) in
  let q3 = bswap64 (get64u b (pos + 24)) in
  let w6 = q3 >>> 32 in
  let w7 = q3 &&& m32 in
  let dw6 = w6 ||| (q3 &&& mh32) in
  let dw7 = w7 ||| (q3 <<< 32) in
  let q4 = bswap64 (get64u b (pos + 32)) in
  let w8 = q4 >>> 32 in
  let w9 = q4 &&& m32 in
  let dw8 = w8 ||| (q4 &&& mh32) in
  let dw9 = w9 ||| (q4 <<< 32) in
  let q5 = bswap64 (get64u b (pos + 40)) in
  let w10 = q5 >>> 32 in
  let w11 = q5 &&& m32 in
  let dw10 = w10 ||| (q5 &&& mh32) in
  let dw11 = w11 ||| (q5 <<< 32) in
  let q6 = bswap64 (get64u b (pos + 48)) in
  let w12 = q6 >>> 32 in
  let w13 = q6 &&& m32 in
  let dw12 = w12 ||| (q6 &&& mh32) in
  let dw13 = w13 ||| (q6 <<< 32) in
  let q7 = bswap64 (get64u b (pos + 56)) in
  let w14 = q7 >>> 32 in
  let w15 = q7 &&& m32 in
  let dw14 = w14 ||| (q7 &&& mh32) in
  let dw15 = w15 ||| (q7 <<< 32) in
  let a0 = Int64.of_int (Array.unsafe_get h 0) in
  let b0 = Int64.of_int (Array.unsafe_get h 1) in
  let c0 = Int64.of_int (Array.unsafe_get h 2) in
  let d0 = Int64.of_int (Array.unsafe_get h 3) in
  let e0 = Int64.of_int (Array.unsafe_get h 4) in
  let f0 = Int64.of_int (Array.unsafe_get h 5) in
  let g0 = Int64.of_int (Array.unsafe_get h 6) in
  let h0 = Int64.of_int (Array.unsafe_get h 7) in
  let a0 = a0 ||| (a0 <<< 32) in
  let b0 = b0 ||| (b0 <<< 32) in
  let c0 = c0 ||| (c0 <<< 32) in
  let d0 = d0 ||| (d0 <<< 32) in
  let e0 = e0 ||| (e0 <<< 32) in
  let f0 = f0 ||| (f0 <<< 32) in
  let g0 = g0 ||| (g0 <<< 32) in
  let h0 = h0 ||| (h0 <<< 32) in
  let t0 = h0 +% ((e0 >>> 6) ^^^ (e0 >>> 11) ^^^ (e0 >>> 25)) +% (g0 ^^^ (e0 &&& (f0 ^^^ g0))) +% 1116352408L +% w0 in
  let xd1 = d0 +% t0 in
  let d1 = (xd1 &&& m32) ||| (xd1 <<< 32) in
  let xh1 = t0 +% ((a0 >>> 2) ^^^ (a0 >>> 13) ^^^ (a0 >>> 22)) +% ((a0 &&& b0) ||| (c0 &&& (a0 ||| b0))) in
  let h1 = (xh1 &&& m32) ||| (xh1 <<< 32) in
  let t1 = g0 +% ((d1 >>> 6) ^^^ (d1 >>> 11) ^^^ (d1 >>> 25)) +% (f0 ^^^ (d1 &&& (e0 ^^^ f0))) +% 1899447441L +% w1 in
  let xd2 = c0 +% t1 in
  let d2 = (xd2 &&& m32) ||| (xd2 <<< 32) in
  let xh2 = t1 +% ((h1 >>> 2) ^^^ (h1 >>> 13) ^^^ (h1 >>> 22)) +% ((h1 &&& a0) ||| (b0 &&& (h1 ||| a0))) in
  let h2 = (xh2 &&& m32) ||| (xh2 <<< 32) in
  let t2 = f0 +% ((d2 >>> 6) ^^^ (d2 >>> 11) ^^^ (d2 >>> 25)) +% (e0 ^^^ (d2 &&& (d1 ^^^ e0))) +% 3049323471L +% w2 in
  let xd3 = b0 +% t2 in
  let d3 = (xd3 &&& m32) ||| (xd3 <<< 32) in
  let xh3 = t2 +% ((h2 >>> 2) ^^^ (h2 >>> 13) ^^^ (h2 >>> 22)) +% ((h2 &&& h1) ||| (a0 &&& (h2 ||| h1))) in
  let h3 = (xh3 &&& m32) ||| (xh3 <<< 32) in
  let t3 = e0 +% ((d3 >>> 6) ^^^ (d3 >>> 11) ^^^ (d3 >>> 25)) +% (d1 ^^^ (d3 &&& (d2 ^^^ d1))) +% 3921009573L +% w3 in
  let xd4 = a0 +% t3 in
  let d4 = (xd4 &&& m32) ||| (xd4 <<< 32) in
  let xh4 = t3 +% ((h3 >>> 2) ^^^ (h3 >>> 13) ^^^ (h3 >>> 22)) +% ((h3 &&& h2) ||| (h1 &&& (h3 ||| h2))) in
  let h4 = (xh4 &&& m32) ||| (xh4 <<< 32) in
  let t4 = d1 +% ((d4 >>> 6) ^^^ (d4 >>> 11) ^^^ (d4 >>> 25)) +% (d2 ^^^ (d4 &&& (d3 ^^^ d2))) +% 961987163L +% w4 in
  let xd5 = h1 +% t4 in
  let d5 = (xd5 &&& m32) ||| (xd5 <<< 32) in
  let xh5 = t4 +% ((h4 >>> 2) ^^^ (h4 >>> 13) ^^^ (h4 >>> 22)) +% ((h4 &&& h3) ||| (h2 &&& (h4 ||| h3))) in
  let h5 = (xh5 &&& m32) ||| (xh5 <<< 32) in
  let t5 = d2 +% ((d5 >>> 6) ^^^ (d5 >>> 11) ^^^ (d5 >>> 25)) +% (d3 ^^^ (d5 &&& (d4 ^^^ d3))) +% 1508970993L +% w5 in
  let xd6 = h2 +% t5 in
  let d6 = (xd6 &&& m32) ||| (xd6 <<< 32) in
  let xh6 = t5 +% ((h5 >>> 2) ^^^ (h5 >>> 13) ^^^ (h5 >>> 22)) +% ((h5 &&& h4) ||| (h3 &&& (h5 ||| h4))) in
  let h6 = (xh6 &&& m32) ||| (xh6 <<< 32) in
  let t6 = d3 +% ((d6 >>> 6) ^^^ (d6 >>> 11) ^^^ (d6 >>> 25)) +% (d4 ^^^ (d6 &&& (d5 ^^^ d4))) +% 2453635748L +% w6 in
  let xd7 = h3 +% t6 in
  let d7 = (xd7 &&& m32) ||| (xd7 <<< 32) in
  let xh7 = t6 +% ((h6 >>> 2) ^^^ (h6 >>> 13) ^^^ (h6 >>> 22)) +% ((h6 &&& h5) ||| (h4 &&& (h6 ||| h5))) in
  let h7 = (xh7 &&& m32) ||| (xh7 <<< 32) in
  let t7 = d4 +% ((d7 >>> 6) ^^^ (d7 >>> 11) ^^^ (d7 >>> 25)) +% (d5 ^^^ (d7 &&& (d6 ^^^ d5))) +% 2870763221L +% w7 in
  let xd8 = h4 +% t7 in
  let d8 = (xd8 &&& m32) ||| (xd8 <<< 32) in
  let xh8 = t7 +% ((h7 >>> 2) ^^^ (h7 >>> 13) ^^^ (h7 >>> 22)) +% ((h7 &&& h6) ||| (h5 &&& (h7 ||| h6))) in
  let h8 = (xh8 &&& m32) ||| (xh8 <<< 32) in
  let t8 = d5 +% ((d8 >>> 6) ^^^ (d8 >>> 11) ^^^ (d8 >>> 25)) +% (d6 ^^^ (d8 &&& (d7 ^^^ d6))) +% 3624381080L +% w8 in
  let xd9 = h5 +% t8 in
  let d9 = (xd9 &&& m32) ||| (xd9 <<< 32) in
  let xh9 = t8 +% ((h8 >>> 2) ^^^ (h8 >>> 13) ^^^ (h8 >>> 22)) +% ((h8 &&& h7) ||| (h6 &&& (h8 ||| h7))) in
  let h9 = (xh9 &&& m32) ||| (xh9 <<< 32) in
  let t9 = d6 +% ((d9 >>> 6) ^^^ (d9 >>> 11) ^^^ (d9 >>> 25)) +% (d7 ^^^ (d9 &&& (d8 ^^^ d7))) +% 310598401L +% w9 in
  let xd10 = h6 +% t9 in
  let d10 = (xd10 &&& m32) ||| (xd10 <<< 32) in
  let xh10 = t9 +% ((h9 >>> 2) ^^^ (h9 >>> 13) ^^^ (h9 >>> 22)) +% ((h9 &&& h8) ||| (h7 &&& (h9 ||| h8))) in
  let h10 = (xh10 &&& m32) ||| (xh10 <<< 32) in
  let t10 = d7 +% ((d10 >>> 6) ^^^ (d10 >>> 11) ^^^ (d10 >>> 25)) +% (d8 ^^^ (d10 &&& (d9 ^^^ d8))) +% 607225278L +% w10 in
  let xd11 = h7 +% t10 in
  let d11 = (xd11 &&& m32) ||| (xd11 <<< 32) in
  let xh11 = t10 +% ((h10 >>> 2) ^^^ (h10 >>> 13) ^^^ (h10 >>> 22)) +% ((h10 &&& h9) ||| (h8 &&& (h10 ||| h9))) in
  let h11 = (xh11 &&& m32) ||| (xh11 <<< 32) in
  let t11 = d8 +% ((d11 >>> 6) ^^^ (d11 >>> 11) ^^^ (d11 >>> 25)) +% (d9 ^^^ (d11 &&& (d10 ^^^ d9))) +% 1426881987L +% w11 in
  let xd12 = h8 +% t11 in
  let d12 = (xd12 &&& m32) ||| (xd12 <<< 32) in
  let xh12 = t11 +% ((h11 >>> 2) ^^^ (h11 >>> 13) ^^^ (h11 >>> 22)) +% ((h11 &&& h10) ||| (h9 &&& (h11 ||| h10))) in
  let h12 = (xh12 &&& m32) ||| (xh12 <<< 32) in
  let t12 = d9 +% ((d12 >>> 6) ^^^ (d12 >>> 11) ^^^ (d12 >>> 25)) +% (d10 ^^^ (d12 &&& (d11 ^^^ d10))) +% 1925078388L +% w12 in
  let xd13 = h9 +% t12 in
  let d13 = (xd13 &&& m32) ||| (xd13 <<< 32) in
  let xh13 = t12 +% ((h12 >>> 2) ^^^ (h12 >>> 13) ^^^ (h12 >>> 22)) +% ((h12 &&& h11) ||| (h10 &&& (h12 ||| h11))) in
  let h13 = (xh13 &&& m32) ||| (xh13 <<< 32) in
  let t13 = d10 +% ((d13 >>> 6) ^^^ (d13 >>> 11) ^^^ (d13 >>> 25)) +% (d11 ^^^ (d13 &&& (d12 ^^^ d11))) +% 2162078206L +% w13 in
  let xd14 = h10 +% t13 in
  let d14 = (xd14 &&& m32) ||| (xd14 <<< 32) in
  let xh14 = t13 +% ((h13 >>> 2) ^^^ (h13 >>> 13) ^^^ (h13 >>> 22)) +% ((h13 &&& h12) ||| (h11 &&& (h13 ||| h12))) in
  let h14 = (xh14 &&& m32) ||| (xh14 <<< 32) in
  let t14 = d11 +% ((d14 >>> 6) ^^^ (d14 >>> 11) ^^^ (d14 >>> 25)) +% (d12 ^^^ (d14 &&& (d13 ^^^ d12))) +% 2614888103L +% w14 in
  let xd15 = h11 +% t14 in
  let d15 = (xd15 &&& m32) ||| (xd15 <<< 32) in
  let xh15 = t14 +% ((h14 >>> 2) ^^^ (h14 >>> 13) ^^^ (h14 >>> 22)) +% ((h14 &&& h13) ||| (h12 &&& (h14 ||| h13))) in
  let h15 = (xh15 &&& m32) ||| (xh15 <<< 32) in
  let t15 = d12 +% ((d15 >>> 6) ^^^ (d15 >>> 11) ^^^ (d15 >>> 25)) +% (d13 ^^^ (d15 &&& (d14 ^^^ d13))) +% 3248222580L +% w15 in
  let xd16 = h12 +% t15 in
  let d16 = (xd16 &&& m32) ||| (xd16 <<< 32) in
  let xh16 = t15 +% ((h15 >>> 2) ^^^ (h15 >>> 13) ^^^ (h15 >>> 22)) +% ((h15 &&& h14) ||| (h13 &&& (h15 ||| h14))) in
  let h16 = (xh16 &&& m32) ||| (xh16 <<< 32) in
  let w16 = (dw0 >>> 32) +% ((dw1 >>> 7) ^^^ (dw1 >>> 18) ^^^ (dw1 >>> 35)) +% (dw9 >>> 32) +% ((dw14 >>> 17) ^^^ (dw14 >>> 19) ^^^ (dw14 >>> 42)) in
  let dw16 = (w16 &&& m32) ||| (w16 <<< 32) in
  let t16 = d13 +% ((d16 >>> 6) ^^^ (d16 >>> 11) ^^^ (d16 >>> 25)) +% (d14 ^^^ (d16 &&& (d15 ^^^ d14))) +% 3835390401L +% w16 in
  let xd17 = h13 +% t16 in
  let d17 = (xd17 &&& m32) ||| (xd17 <<< 32) in
  let xh17 = t16 +% ((h16 >>> 2) ^^^ (h16 >>> 13) ^^^ (h16 >>> 22)) +% ((h16 &&& h15) ||| (h14 &&& (h16 ||| h15))) in
  let h17 = (xh17 &&& m32) ||| (xh17 <<< 32) in
  let w17 = (dw1 >>> 32) +% ((dw2 >>> 7) ^^^ (dw2 >>> 18) ^^^ (dw2 >>> 35)) +% (dw10 >>> 32) +% ((dw15 >>> 17) ^^^ (dw15 >>> 19) ^^^ (dw15 >>> 42)) in
  let dw17 = (w17 &&& m32) ||| (w17 <<< 32) in
  let t17 = d14 +% ((d17 >>> 6) ^^^ (d17 >>> 11) ^^^ (d17 >>> 25)) +% (d15 ^^^ (d17 &&& (d16 ^^^ d15))) +% 4022224774L +% w17 in
  let xd18 = h14 +% t17 in
  let d18 = (xd18 &&& m32) ||| (xd18 <<< 32) in
  let xh18 = t17 +% ((h17 >>> 2) ^^^ (h17 >>> 13) ^^^ (h17 >>> 22)) +% ((h17 &&& h16) ||| (h15 &&& (h17 ||| h16))) in
  let h18 = (xh18 &&& m32) ||| (xh18 <<< 32) in
  let w18 = (dw2 >>> 32) +% ((dw3 >>> 7) ^^^ (dw3 >>> 18) ^^^ (dw3 >>> 35)) +% (dw11 >>> 32) +% ((dw16 >>> 17) ^^^ (dw16 >>> 19) ^^^ (dw16 >>> 42)) in
  let dw18 = (w18 &&& m32) ||| (w18 <<< 32) in
  let t18 = d15 +% ((d18 >>> 6) ^^^ (d18 >>> 11) ^^^ (d18 >>> 25)) +% (d16 ^^^ (d18 &&& (d17 ^^^ d16))) +% 264347078L +% w18 in
  let xd19 = h15 +% t18 in
  let d19 = (xd19 &&& m32) ||| (xd19 <<< 32) in
  let xh19 = t18 +% ((h18 >>> 2) ^^^ (h18 >>> 13) ^^^ (h18 >>> 22)) +% ((h18 &&& h17) ||| (h16 &&& (h18 ||| h17))) in
  let h19 = (xh19 &&& m32) ||| (xh19 <<< 32) in
  let w19 = (dw3 >>> 32) +% ((dw4 >>> 7) ^^^ (dw4 >>> 18) ^^^ (dw4 >>> 35)) +% (dw12 >>> 32) +% ((dw17 >>> 17) ^^^ (dw17 >>> 19) ^^^ (dw17 >>> 42)) in
  let dw19 = (w19 &&& m32) ||| (w19 <<< 32) in
  let t19 = d16 +% ((d19 >>> 6) ^^^ (d19 >>> 11) ^^^ (d19 >>> 25)) +% (d17 ^^^ (d19 &&& (d18 ^^^ d17))) +% 604807628L +% w19 in
  let xd20 = h16 +% t19 in
  let d20 = (xd20 &&& m32) ||| (xd20 <<< 32) in
  let xh20 = t19 +% ((h19 >>> 2) ^^^ (h19 >>> 13) ^^^ (h19 >>> 22)) +% ((h19 &&& h18) ||| (h17 &&& (h19 ||| h18))) in
  let h20 = (xh20 &&& m32) ||| (xh20 <<< 32) in
  let w20 = (dw4 >>> 32) +% ((dw5 >>> 7) ^^^ (dw5 >>> 18) ^^^ (dw5 >>> 35)) +% (dw13 >>> 32) +% ((dw18 >>> 17) ^^^ (dw18 >>> 19) ^^^ (dw18 >>> 42)) in
  let dw20 = (w20 &&& m32) ||| (w20 <<< 32) in
  let t20 = d17 +% ((d20 >>> 6) ^^^ (d20 >>> 11) ^^^ (d20 >>> 25)) +% (d18 ^^^ (d20 &&& (d19 ^^^ d18))) +% 770255983L +% w20 in
  let xd21 = h17 +% t20 in
  let d21 = (xd21 &&& m32) ||| (xd21 <<< 32) in
  let xh21 = t20 +% ((h20 >>> 2) ^^^ (h20 >>> 13) ^^^ (h20 >>> 22)) +% ((h20 &&& h19) ||| (h18 &&& (h20 ||| h19))) in
  let h21 = (xh21 &&& m32) ||| (xh21 <<< 32) in
  let w21 = (dw5 >>> 32) +% ((dw6 >>> 7) ^^^ (dw6 >>> 18) ^^^ (dw6 >>> 35)) +% (dw14 >>> 32) +% ((dw19 >>> 17) ^^^ (dw19 >>> 19) ^^^ (dw19 >>> 42)) in
  let dw21 = (w21 &&& m32) ||| (w21 <<< 32) in
  let t21 = d18 +% ((d21 >>> 6) ^^^ (d21 >>> 11) ^^^ (d21 >>> 25)) +% (d19 ^^^ (d21 &&& (d20 ^^^ d19))) +% 1249150122L +% w21 in
  let xd22 = h18 +% t21 in
  let d22 = (xd22 &&& m32) ||| (xd22 <<< 32) in
  let xh22 = t21 +% ((h21 >>> 2) ^^^ (h21 >>> 13) ^^^ (h21 >>> 22)) +% ((h21 &&& h20) ||| (h19 &&& (h21 ||| h20))) in
  let h22 = (xh22 &&& m32) ||| (xh22 <<< 32) in
  let w22 = (dw6 >>> 32) +% ((dw7 >>> 7) ^^^ (dw7 >>> 18) ^^^ (dw7 >>> 35)) +% (dw15 >>> 32) +% ((dw20 >>> 17) ^^^ (dw20 >>> 19) ^^^ (dw20 >>> 42)) in
  let dw22 = (w22 &&& m32) ||| (w22 <<< 32) in
  let t22 = d19 +% ((d22 >>> 6) ^^^ (d22 >>> 11) ^^^ (d22 >>> 25)) +% (d20 ^^^ (d22 &&& (d21 ^^^ d20))) +% 1555081692L +% w22 in
  let xd23 = h19 +% t22 in
  let d23 = (xd23 &&& m32) ||| (xd23 <<< 32) in
  let xh23 = t22 +% ((h22 >>> 2) ^^^ (h22 >>> 13) ^^^ (h22 >>> 22)) +% ((h22 &&& h21) ||| (h20 &&& (h22 ||| h21))) in
  let h23 = (xh23 &&& m32) ||| (xh23 <<< 32) in
  let w23 = (dw7 >>> 32) +% ((dw8 >>> 7) ^^^ (dw8 >>> 18) ^^^ (dw8 >>> 35)) +% (dw16 >>> 32) +% ((dw21 >>> 17) ^^^ (dw21 >>> 19) ^^^ (dw21 >>> 42)) in
  let dw23 = (w23 &&& m32) ||| (w23 <<< 32) in
  let t23 = d20 +% ((d23 >>> 6) ^^^ (d23 >>> 11) ^^^ (d23 >>> 25)) +% (d21 ^^^ (d23 &&& (d22 ^^^ d21))) +% 1996064986L +% w23 in
  let xd24 = h20 +% t23 in
  let d24 = (xd24 &&& m32) ||| (xd24 <<< 32) in
  let xh24 = t23 +% ((h23 >>> 2) ^^^ (h23 >>> 13) ^^^ (h23 >>> 22)) +% ((h23 &&& h22) ||| (h21 &&& (h23 ||| h22))) in
  let h24 = (xh24 &&& m32) ||| (xh24 <<< 32) in
  let w24 = (dw8 >>> 32) +% ((dw9 >>> 7) ^^^ (dw9 >>> 18) ^^^ (dw9 >>> 35)) +% (dw17 >>> 32) +% ((dw22 >>> 17) ^^^ (dw22 >>> 19) ^^^ (dw22 >>> 42)) in
  let dw24 = (w24 &&& m32) ||| (w24 <<< 32) in
  let t24 = d21 +% ((d24 >>> 6) ^^^ (d24 >>> 11) ^^^ (d24 >>> 25)) +% (d22 ^^^ (d24 &&& (d23 ^^^ d22))) +% 2554220882L +% w24 in
  let xd25 = h21 +% t24 in
  let d25 = (xd25 &&& m32) ||| (xd25 <<< 32) in
  let xh25 = t24 +% ((h24 >>> 2) ^^^ (h24 >>> 13) ^^^ (h24 >>> 22)) +% ((h24 &&& h23) ||| (h22 &&& (h24 ||| h23))) in
  let h25 = (xh25 &&& m32) ||| (xh25 <<< 32) in
  let w25 = (dw9 >>> 32) +% ((dw10 >>> 7) ^^^ (dw10 >>> 18) ^^^ (dw10 >>> 35)) +% (dw18 >>> 32) +% ((dw23 >>> 17) ^^^ (dw23 >>> 19) ^^^ (dw23 >>> 42)) in
  let dw25 = (w25 &&& m32) ||| (w25 <<< 32) in
  let t25 = d22 +% ((d25 >>> 6) ^^^ (d25 >>> 11) ^^^ (d25 >>> 25)) +% (d23 ^^^ (d25 &&& (d24 ^^^ d23))) +% 2821834349L +% w25 in
  let xd26 = h22 +% t25 in
  let d26 = (xd26 &&& m32) ||| (xd26 <<< 32) in
  let xh26 = t25 +% ((h25 >>> 2) ^^^ (h25 >>> 13) ^^^ (h25 >>> 22)) +% ((h25 &&& h24) ||| (h23 &&& (h25 ||| h24))) in
  let h26 = (xh26 &&& m32) ||| (xh26 <<< 32) in
  let w26 = (dw10 >>> 32) +% ((dw11 >>> 7) ^^^ (dw11 >>> 18) ^^^ (dw11 >>> 35)) +% (dw19 >>> 32) +% ((dw24 >>> 17) ^^^ (dw24 >>> 19) ^^^ (dw24 >>> 42)) in
  let dw26 = (w26 &&& m32) ||| (w26 <<< 32) in
  let t26 = d23 +% ((d26 >>> 6) ^^^ (d26 >>> 11) ^^^ (d26 >>> 25)) +% (d24 ^^^ (d26 &&& (d25 ^^^ d24))) +% 2952996808L +% w26 in
  let xd27 = h23 +% t26 in
  let d27 = (xd27 &&& m32) ||| (xd27 <<< 32) in
  let xh27 = t26 +% ((h26 >>> 2) ^^^ (h26 >>> 13) ^^^ (h26 >>> 22)) +% ((h26 &&& h25) ||| (h24 &&& (h26 ||| h25))) in
  let h27 = (xh27 &&& m32) ||| (xh27 <<< 32) in
  let w27 = (dw11 >>> 32) +% ((dw12 >>> 7) ^^^ (dw12 >>> 18) ^^^ (dw12 >>> 35)) +% (dw20 >>> 32) +% ((dw25 >>> 17) ^^^ (dw25 >>> 19) ^^^ (dw25 >>> 42)) in
  let dw27 = (w27 &&& m32) ||| (w27 <<< 32) in
  let t27 = d24 +% ((d27 >>> 6) ^^^ (d27 >>> 11) ^^^ (d27 >>> 25)) +% (d25 ^^^ (d27 &&& (d26 ^^^ d25))) +% 3210313671L +% w27 in
  let xd28 = h24 +% t27 in
  let d28 = (xd28 &&& m32) ||| (xd28 <<< 32) in
  let xh28 = t27 +% ((h27 >>> 2) ^^^ (h27 >>> 13) ^^^ (h27 >>> 22)) +% ((h27 &&& h26) ||| (h25 &&& (h27 ||| h26))) in
  let h28 = (xh28 &&& m32) ||| (xh28 <<< 32) in
  let w28 = (dw12 >>> 32) +% ((dw13 >>> 7) ^^^ (dw13 >>> 18) ^^^ (dw13 >>> 35)) +% (dw21 >>> 32) +% ((dw26 >>> 17) ^^^ (dw26 >>> 19) ^^^ (dw26 >>> 42)) in
  let dw28 = (w28 &&& m32) ||| (w28 <<< 32) in
  let t28 = d25 +% ((d28 >>> 6) ^^^ (d28 >>> 11) ^^^ (d28 >>> 25)) +% (d26 ^^^ (d28 &&& (d27 ^^^ d26))) +% 3336571891L +% w28 in
  let xd29 = h25 +% t28 in
  let d29 = (xd29 &&& m32) ||| (xd29 <<< 32) in
  let xh29 = t28 +% ((h28 >>> 2) ^^^ (h28 >>> 13) ^^^ (h28 >>> 22)) +% ((h28 &&& h27) ||| (h26 &&& (h28 ||| h27))) in
  let h29 = (xh29 &&& m32) ||| (xh29 <<< 32) in
  let w29 = (dw13 >>> 32) +% ((dw14 >>> 7) ^^^ (dw14 >>> 18) ^^^ (dw14 >>> 35)) +% (dw22 >>> 32) +% ((dw27 >>> 17) ^^^ (dw27 >>> 19) ^^^ (dw27 >>> 42)) in
  let dw29 = (w29 &&& m32) ||| (w29 <<< 32) in
  let t29 = d26 +% ((d29 >>> 6) ^^^ (d29 >>> 11) ^^^ (d29 >>> 25)) +% (d27 ^^^ (d29 &&& (d28 ^^^ d27))) +% 3584528711L +% w29 in
  let xd30 = h26 +% t29 in
  let d30 = (xd30 &&& m32) ||| (xd30 <<< 32) in
  let xh30 = t29 +% ((h29 >>> 2) ^^^ (h29 >>> 13) ^^^ (h29 >>> 22)) +% ((h29 &&& h28) ||| (h27 &&& (h29 ||| h28))) in
  let h30 = (xh30 &&& m32) ||| (xh30 <<< 32) in
  let w30 = (dw14 >>> 32) +% ((dw15 >>> 7) ^^^ (dw15 >>> 18) ^^^ (dw15 >>> 35)) +% (dw23 >>> 32) +% ((dw28 >>> 17) ^^^ (dw28 >>> 19) ^^^ (dw28 >>> 42)) in
  let dw30 = (w30 &&& m32) ||| (w30 <<< 32) in
  let t30 = d27 +% ((d30 >>> 6) ^^^ (d30 >>> 11) ^^^ (d30 >>> 25)) +% (d28 ^^^ (d30 &&& (d29 ^^^ d28))) +% 113926993L +% w30 in
  let xd31 = h27 +% t30 in
  let d31 = (xd31 &&& m32) ||| (xd31 <<< 32) in
  let xh31 = t30 +% ((h30 >>> 2) ^^^ (h30 >>> 13) ^^^ (h30 >>> 22)) +% ((h30 &&& h29) ||| (h28 &&& (h30 ||| h29))) in
  let h31 = (xh31 &&& m32) ||| (xh31 <<< 32) in
  let w31 = (dw15 >>> 32) +% ((dw16 >>> 7) ^^^ (dw16 >>> 18) ^^^ (dw16 >>> 35)) +% (dw24 >>> 32) +% ((dw29 >>> 17) ^^^ (dw29 >>> 19) ^^^ (dw29 >>> 42)) in
  let dw31 = (w31 &&& m32) ||| (w31 <<< 32) in
  let t31 = d28 +% ((d31 >>> 6) ^^^ (d31 >>> 11) ^^^ (d31 >>> 25)) +% (d29 ^^^ (d31 &&& (d30 ^^^ d29))) +% 338241895L +% w31 in
  let xd32 = h28 +% t31 in
  let d32 = (xd32 &&& m32) ||| (xd32 <<< 32) in
  let xh32 = t31 +% ((h31 >>> 2) ^^^ (h31 >>> 13) ^^^ (h31 >>> 22)) +% ((h31 &&& h30) ||| (h29 &&& (h31 ||| h30))) in
  let h32 = (xh32 &&& m32) ||| (xh32 <<< 32) in
  let w32 = (dw16 >>> 32) +% ((dw17 >>> 7) ^^^ (dw17 >>> 18) ^^^ (dw17 >>> 35)) +% (dw25 >>> 32) +% ((dw30 >>> 17) ^^^ (dw30 >>> 19) ^^^ (dw30 >>> 42)) in
  let dw32 = (w32 &&& m32) ||| (w32 <<< 32) in
  let t32 = d29 +% ((d32 >>> 6) ^^^ (d32 >>> 11) ^^^ (d32 >>> 25)) +% (d30 ^^^ (d32 &&& (d31 ^^^ d30))) +% 666307205L +% w32 in
  let xd33 = h29 +% t32 in
  let d33 = (xd33 &&& m32) ||| (xd33 <<< 32) in
  let xh33 = t32 +% ((h32 >>> 2) ^^^ (h32 >>> 13) ^^^ (h32 >>> 22)) +% ((h32 &&& h31) ||| (h30 &&& (h32 ||| h31))) in
  let h33 = (xh33 &&& m32) ||| (xh33 <<< 32) in
  let w33 = (dw17 >>> 32) +% ((dw18 >>> 7) ^^^ (dw18 >>> 18) ^^^ (dw18 >>> 35)) +% (dw26 >>> 32) +% ((dw31 >>> 17) ^^^ (dw31 >>> 19) ^^^ (dw31 >>> 42)) in
  let dw33 = (w33 &&& m32) ||| (w33 <<< 32) in
  let t33 = d30 +% ((d33 >>> 6) ^^^ (d33 >>> 11) ^^^ (d33 >>> 25)) +% (d31 ^^^ (d33 &&& (d32 ^^^ d31))) +% 773529912L +% w33 in
  let xd34 = h30 +% t33 in
  let d34 = (xd34 &&& m32) ||| (xd34 <<< 32) in
  let xh34 = t33 +% ((h33 >>> 2) ^^^ (h33 >>> 13) ^^^ (h33 >>> 22)) +% ((h33 &&& h32) ||| (h31 &&& (h33 ||| h32))) in
  let h34 = (xh34 &&& m32) ||| (xh34 <<< 32) in
  let w34 = (dw18 >>> 32) +% ((dw19 >>> 7) ^^^ (dw19 >>> 18) ^^^ (dw19 >>> 35)) +% (dw27 >>> 32) +% ((dw32 >>> 17) ^^^ (dw32 >>> 19) ^^^ (dw32 >>> 42)) in
  let dw34 = (w34 &&& m32) ||| (w34 <<< 32) in
  let t34 = d31 +% ((d34 >>> 6) ^^^ (d34 >>> 11) ^^^ (d34 >>> 25)) +% (d32 ^^^ (d34 &&& (d33 ^^^ d32))) +% 1294757372L +% w34 in
  let xd35 = h31 +% t34 in
  let d35 = (xd35 &&& m32) ||| (xd35 <<< 32) in
  let xh35 = t34 +% ((h34 >>> 2) ^^^ (h34 >>> 13) ^^^ (h34 >>> 22)) +% ((h34 &&& h33) ||| (h32 &&& (h34 ||| h33))) in
  let h35 = (xh35 &&& m32) ||| (xh35 <<< 32) in
  let w35 = (dw19 >>> 32) +% ((dw20 >>> 7) ^^^ (dw20 >>> 18) ^^^ (dw20 >>> 35)) +% (dw28 >>> 32) +% ((dw33 >>> 17) ^^^ (dw33 >>> 19) ^^^ (dw33 >>> 42)) in
  let dw35 = (w35 &&& m32) ||| (w35 <<< 32) in
  let t35 = d32 +% ((d35 >>> 6) ^^^ (d35 >>> 11) ^^^ (d35 >>> 25)) +% (d33 ^^^ (d35 &&& (d34 ^^^ d33))) +% 1396182291L +% w35 in
  let xd36 = h32 +% t35 in
  let d36 = (xd36 &&& m32) ||| (xd36 <<< 32) in
  let xh36 = t35 +% ((h35 >>> 2) ^^^ (h35 >>> 13) ^^^ (h35 >>> 22)) +% ((h35 &&& h34) ||| (h33 &&& (h35 ||| h34))) in
  let h36 = (xh36 &&& m32) ||| (xh36 <<< 32) in
  let w36 = (dw20 >>> 32) +% ((dw21 >>> 7) ^^^ (dw21 >>> 18) ^^^ (dw21 >>> 35)) +% (dw29 >>> 32) +% ((dw34 >>> 17) ^^^ (dw34 >>> 19) ^^^ (dw34 >>> 42)) in
  let dw36 = (w36 &&& m32) ||| (w36 <<< 32) in
  let t36 = d33 +% ((d36 >>> 6) ^^^ (d36 >>> 11) ^^^ (d36 >>> 25)) +% (d34 ^^^ (d36 &&& (d35 ^^^ d34))) +% 1695183700L +% w36 in
  let xd37 = h33 +% t36 in
  let d37 = (xd37 &&& m32) ||| (xd37 <<< 32) in
  let xh37 = t36 +% ((h36 >>> 2) ^^^ (h36 >>> 13) ^^^ (h36 >>> 22)) +% ((h36 &&& h35) ||| (h34 &&& (h36 ||| h35))) in
  let h37 = (xh37 &&& m32) ||| (xh37 <<< 32) in
  let w37 = (dw21 >>> 32) +% ((dw22 >>> 7) ^^^ (dw22 >>> 18) ^^^ (dw22 >>> 35)) +% (dw30 >>> 32) +% ((dw35 >>> 17) ^^^ (dw35 >>> 19) ^^^ (dw35 >>> 42)) in
  let dw37 = (w37 &&& m32) ||| (w37 <<< 32) in
  let t37 = d34 +% ((d37 >>> 6) ^^^ (d37 >>> 11) ^^^ (d37 >>> 25)) +% (d35 ^^^ (d37 &&& (d36 ^^^ d35))) +% 1986661051L +% w37 in
  let xd38 = h34 +% t37 in
  let d38 = (xd38 &&& m32) ||| (xd38 <<< 32) in
  let xh38 = t37 +% ((h37 >>> 2) ^^^ (h37 >>> 13) ^^^ (h37 >>> 22)) +% ((h37 &&& h36) ||| (h35 &&& (h37 ||| h36))) in
  let h38 = (xh38 &&& m32) ||| (xh38 <<< 32) in
  let w38 = (dw22 >>> 32) +% ((dw23 >>> 7) ^^^ (dw23 >>> 18) ^^^ (dw23 >>> 35)) +% (dw31 >>> 32) +% ((dw36 >>> 17) ^^^ (dw36 >>> 19) ^^^ (dw36 >>> 42)) in
  let dw38 = (w38 &&& m32) ||| (w38 <<< 32) in
  let t38 = d35 +% ((d38 >>> 6) ^^^ (d38 >>> 11) ^^^ (d38 >>> 25)) +% (d36 ^^^ (d38 &&& (d37 ^^^ d36))) +% 2177026350L +% w38 in
  let xd39 = h35 +% t38 in
  let d39 = (xd39 &&& m32) ||| (xd39 <<< 32) in
  let xh39 = t38 +% ((h38 >>> 2) ^^^ (h38 >>> 13) ^^^ (h38 >>> 22)) +% ((h38 &&& h37) ||| (h36 &&& (h38 ||| h37))) in
  let h39 = (xh39 &&& m32) ||| (xh39 <<< 32) in
  let w39 = (dw23 >>> 32) +% ((dw24 >>> 7) ^^^ (dw24 >>> 18) ^^^ (dw24 >>> 35)) +% (dw32 >>> 32) +% ((dw37 >>> 17) ^^^ (dw37 >>> 19) ^^^ (dw37 >>> 42)) in
  let dw39 = (w39 &&& m32) ||| (w39 <<< 32) in
  let t39 = d36 +% ((d39 >>> 6) ^^^ (d39 >>> 11) ^^^ (d39 >>> 25)) +% (d37 ^^^ (d39 &&& (d38 ^^^ d37))) +% 2456956037L +% w39 in
  let xd40 = h36 +% t39 in
  let d40 = (xd40 &&& m32) ||| (xd40 <<< 32) in
  let xh40 = t39 +% ((h39 >>> 2) ^^^ (h39 >>> 13) ^^^ (h39 >>> 22)) +% ((h39 &&& h38) ||| (h37 &&& (h39 ||| h38))) in
  let h40 = (xh40 &&& m32) ||| (xh40 <<< 32) in
  let w40 = (dw24 >>> 32) +% ((dw25 >>> 7) ^^^ (dw25 >>> 18) ^^^ (dw25 >>> 35)) +% (dw33 >>> 32) +% ((dw38 >>> 17) ^^^ (dw38 >>> 19) ^^^ (dw38 >>> 42)) in
  let dw40 = (w40 &&& m32) ||| (w40 <<< 32) in
  let t40 = d37 +% ((d40 >>> 6) ^^^ (d40 >>> 11) ^^^ (d40 >>> 25)) +% (d38 ^^^ (d40 &&& (d39 ^^^ d38))) +% 2730485921L +% w40 in
  let xd41 = h37 +% t40 in
  let d41 = (xd41 &&& m32) ||| (xd41 <<< 32) in
  let xh41 = t40 +% ((h40 >>> 2) ^^^ (h40 >>> 13) ^^^ (h40 >>> 22)) +% ((h40 &&& h39) ||| (h38 &&& (h40 ||| h39))) in
  let h41 = (xh41 &&& m32) ||| (xh41 <<< 32) in
  let w41 = (dw25 >>> 32) +% ((dw26 >>> 7) ^^^ (dw26 >>> 18) ^^^ (dw26 >>> 35)) +% (dw34 >>> 32) +% ((dw39 >>> 17) ^^^ (dw39 >>> 19) ^^^ (dw39 >>> 42)) in
  let dw41 = (w41 &&& m32) ||| (w41 <<< 32) in
  let t41 = d38 +% ((d41 >>> 6) ^^^ (d41 >>> 11) ^^^ (d41 >>> 25)) +% (d39 ^^^ (d41 &&& (d40 ^^^ d39))) +% 2820302411L +% w41 in
  let xd42 = h38 +% t41 in
  let d42 = (xd42 &&& m32) ||| (xd42 <<< 32) in
  let xh42 = t41 +% ((h41 >>> 2) ^^^ (h41 >>> 13) ^^^ (h41 >>> 22)) +% ((h41 &&& h40) ||| (h39 &&& (h41 ||| h40))) in
  let h42 = (xh42 &&& m32) ||| (xh42 <<< 32) in
  let w42 = (dw26 >>> 32) +% ((dw27 >>> 7) ^^^ (dw27 >>> 18) ^^^ (dw27 >>> 35)) +% (dw35 >>> 32) +% ((dw40 >>> 17) ^^^ (dw40 >>> 19) ^^^ (dw40 >>> 42)) in
  let dw42 = (w42 &&& m32) ||| (w42 <<< 32) in
  let t42 = d39 +% ((d42 >>> 6) ^^^ (d42 >>> 11) ^^^ (d42 >>> 25)) +% (d40 ^^^ (d42 &&& (d41 ^^^ d40))) +% 3259730800L +% w42 in
  let xd43 = h39 +% t42 in
  let d43 = (xd43 &&& m32) ||| (xd43 <<< 32) in
  let xh43 = t42 +% ((h42 >>> 2) ^^^ (h42 >>> 13) ^^^ (h42 >>> 22)) +% ((h42 &&& h41) ||| (h40 &&& (h42 ||| h41))) in
  let h43 = (xh43 &&& m32) ||| (xh43 <<< 32) in
  let w43 = (dw27 >>> 32) +% ((dw28 >>> 7) ^^^ (dw28 >>> 18) ^^^ (dw28 >>> 35)) +% (dw36 >>> 32) +% ((dw41 >>> 17) ^^^ (dw41 >>> 19) ^^^ (dw41 >>> 42)) in
  let dw43 = (w43 &&& m32) ||| (w43 <<< 32) in
  let t43 = d40 +% ((d43 >>> 6) ^^^ (d43 >>> 11) ^^^ (d43 >>> 25)) +% (d41 ^^^ (d43 &&& (d42 ^^^ d41))) +% 3345764771L +% w43 in
  let xd44 = h40 +% t43 in
  let d44 = (xd44 &&& m32) ||| (xd44 <<< 32) in
  let xh44 = t43 +% ((h43 >>> 2) ^^^ (h43 >>> 13) ^^^ (h43 >>> 22)) +% ((h43 &&& h42) ||| (h41 &&& (h43 ||| h42))) in
  let h44 = (xh44 &&& m32) ||| (xh44 <<< 32) in
  let w44 = (dw28 >>> 32) +% ((dw29 >>> 7) ^^^ (dw29 >>> 18) ^^^ (dw29 >>> 35)) +% (dw37 >>> 32) +% ((dw42 >>> 17) ^^^ (dw42 >>> 19) ^^^ (dw42 >>> 42)) in
  let dw44 = (w44 &&& m32) ||| (w44 <<< 32) in
  let t44 = d41 +% ((d44 >>> 6) ^^^ (d44 >>> 11) ^^^ (d44 >>> 25)) +% (d42 ^^^ (d44 &&& (d43 ^^^ d42))) +% 3516065817L +% w44 in
  let xd45 = h41 +% t44 in
  let d45 = (xd45 &&& m32) ||| (xd45 <<< 32) in
  let xh45 = t44 +% ((h44 >>> 2) ^^^ (h44 >>> 13) ^^^ (h44 >>> 22)) +% ((h44 &&& h43) ||| (h42 &&& (h44 ||| h43))) in
  let h45 = (xh45 &&& m32) ||| (xh45 <<< 32) in
  let w45 = (dw29 >>> 32) +% ((dw30 >>> 7) ^^^ (dw30 >>> 18) ^^^ (dw30 >>> 35)) +% (dw38 >>> 32) +% ((dw43 >>> 17) ^^^ (dw43 >>> 19) ^^^ (dw43 >>> 42)) in
  let dw45 = (w45 &&& m32) ||| (w45 <<< 32) in
  let t45 = d42 +% ((d45 >>> 6) ^^^ (d45 >>> 11) ^^^ (d45 >>> 25)) +% (d43 ^^^ (d45 &&& (d44 ^^^ d43))) +% 3600352804L +% w45 in
  let xd46 = h42 +% t45 in
  let d46 = (xd46 &&& m32) ||| (xd46 <<< 32) in
  let xh46 = t45 +% ((h45 >>> 2) ^^^ (h45 >>> 13) ^^^ (h45 >>> 22)) +% ((h45 &&& h44) ||| (h43 &&& (h45 ||| h44))) in
  let h46 = (xh46 &&& m32) ||| (xh46 <<< 32) in
  let w46 = (dw30 >>> 32) +% ((dw31 >>> 7) ^^^ (dw31 >>> 18) ^^^ (dw31 >>> 35)) +% (dw39 >>> 32) +% ((dw44 >>> 17) ^^^ (dw44 >>> 19) ^^^ (dw44 >>> 42)) in
  let dw46 = (w46 &&& m32) ||| (w46 <<< 32) in
  let t46 = d43 +% ((d46 >>> 6) ^^^ (d46 >>> 11) ^^^ (d46 >>> 25)) +% (d44 ^^^ (d46 &&& (d45 ^^^ d44))) +% 4094571909L +% w46 in
  let xd47 = h43 +% t46 in
  let d47 = (xd47 &&& m32) ||| (xd47 <<< 32) in
  let xh47 = t46 +% ((h46 >>> 2) ^^^ (h46 >>> 13) ^^^ (h46 >>> 22)) +% ((h46 &&& h45) ||| (h44 &&& (h46 ||| h45))) in
  let h47 = (xh47 &&& m32) ||| (xh47 <<< 32) in
  let w47 = (dw31 >>> 32) +% ((dw32 >>> 7) ^^^ (dw32 >>> 18) ^^^ (dw32 >>> 35)) +% (dw40 >>> 32) +% ((dw45 >>> 17) ^^^ (dw45 >>> 19) ^^^ (dw45 >>> 42)) in
  let dw47 = (w47 &&& m32) ||| (w47 <<< 32) in
  let t47 = d44 +% ((d47 >>> 6) ^^^ (d47 >>> 11) ^^^ (d47 >>> 25)) +% (d45 ^^^ (d47 &&& (d46 ^^^ d45))) +% 275423344L +% w47 in
  let xd48 = h44 +% t47 in
  let d48 = (xd48 &&& m32) ||| (xd48 <<< 32) in
  let xh48 = t47 +% ((h47 >>> 2) ^^^ (h47 >>> 13) ^^^ (h47 >>> 22)) +% ((h47 &&& h46) ||| (h45 &&& (h47 ||| h46))) in
  let h48 = (xh48 &&& m32) ||| (xh48 <<< 32) in
  let w48 = (dw32 >>> 32) +% ((dw33 >>> 7) ^^^ (dw33 >>> 18) ^^^ (dw33 >>> 35)) +% (dw41 >>> 32) +% ((dw46 >>> 17) ^^^ (dw46 >>> 19) ^^^ (dw46 >>> 42)) in
  let dw48 = (w48 &&& m32) ||| (w48 <<< 32) in
  let t48 = d45 +% ((d48 >>> 6) ^^^ (d48 >>> 11) ^^^ (d48 >>> 25)) +% (d46 ^^^ (d48 &&& (d47 ^^^ d46))) +% 430227734L +% w48 in
  let xd49 = h45 +% t48 in
  let d49 = (xd49 &&& m32) ||| (xd49 <<< 32) in
  let xh49 = t48 +% ((h48 >>> 2) ^^^ (h48 >>> 13) ^^^ (h48 >>> 22)) +% ((h48 &&& h47) ||| (h46 &&& (h48 ||| h47))) in
  let h49 = (xh49 &&& m32) ||| (xh49 <<< 32) in
  let w49 = (dw33 >>> 32) +% ((dw34 >>> 7) ^^^ (dw34 >>> 18) ^^^ (dw34 >>> 35)) +% (dw42 >>> 32) +% ((dw47 >>> 17) ^^^ (dw47 >>> 19) ^^^ (dw47 >>> 42)) in
  let dw49 = (w49 &&& m32) ||| (w49 <<< 32) in
  let t49 = d46 +% ((d49 >>> 6) ^^^ (d49 >>> 11) ^^^ (d49 >>> 25)) +% (d47 ^^^ (d49 &&& (d48 ^^^ d47))) +% 506948616L +% w49 in
  let xd50 = h46 +% t49 in
  let d50 = (xd50 &&& m32) ||| (xd50 <<< 32) in
  let xh50 = t49 +% ((h49 >>> 2) ^^^ (h49 >>> 13) ^^^ (h49 >>> 22)) +% ((h49 &&& h48) ||| (h47 &&& (h49 ||| h48))) in
  let h50 = (xh50 &&& m32) ||| (xh50 <<< 32) in
  let w50 = (dw34 >>> 32) +% ((dw35 >>> 7) ^^^ (dw35 >>> 18) ^^^ (dw35 >>> 35)) +% (dw43 >>> 32) +% ((dw48 >>> 17) ^^^ (dw48 >>> 19) ^^^ (dw48 >>> 42)) in
  let dw50 = (w50 &&& m32) ||| (w50 <<< 32) in
  let t50 = d47 +% ((d50 >>> 6) ^^^ (d50 >>> 11) ^^^ (d50 >>> 25)) +% (d48 ^^^ (d50 &&& (d49 ^^^ d48))) +% 659060556L +% w50 in
  let xd51 = h47 +% t50 in
  let d51 = (xd51 &&& m32) ||| (xd51 <<< 32) in
  let xh51 = t50 +% ((h50 >>> 2) ^^^ (h50 >>> 13) ^^^ (h50 >>> 22)) +% ((h50 &&& h49) ||| (h48 &&& (h50 ||| h49))) in
  let h51 = (xh51 &&& m32) ||| (xh51 <<< 32) in
  let w51 = (dw35 >>> 32) +% ((dw36 >>> 7) ^^^ (dw36 >>> 18) ^^^ (dw36 >>> 35)) +% (dw44 >>> 32) +% ((dw49 >>> 17) ^^^ (dw49 >>> 19) ^^^ (dw49 >>> 42)) in
  let dw51 = (w51 &&& m32) ||| (w51 <<< 32) in
  let t51 = d48 +% ((d51 >>> 6) ^^^ (d51 >>> 11) ^^^ (d51 >>> 25)) +% (d49 ^^^ (d51 &&& (d50 ^^^ d49))) +% 883997877L +% w51 in
  let xd52 = h48 +% t51 in
  let d52 = (xd52 &&& m32) ||| (xd52 <<< 32) in
  let xh52 = t51 +% ((h51 >>> 2) ^^^ (h51 >>> 13) ^^^ (h51 >>> 22)) +% ((h51 &&& h50) ||| (h49 &&& (h51 ||| h50))) in
  let h52 = (xh52 &&& m32) ||| (xh52 <<< 32) in
  let w52 = (dw36 >>> 32) +% ((dw37 >>> 7) ^^^ (dw37 >>> 18) ^^^ (dw37 >>> 35)) +% (dw45 >>> 32) +% ((dw50 >>> 17) ^^^ (dw50 >>> 19) ^^^ (dw50 >>> 42)) in
  let dw52 = (w52 &&& m32) ||| (w52 <<< 32) in
  let t52 = d49 +% ((d52 >>> 6) ^^^ (d52 >>> 11) ^^^ (d52 >>> 25)) +% (d50 ^^^ (d52 &&& (d51 ^^^ d50))) +% 958139571L +% w52 in
  let xd53 = h49 +% t52 in
  let d53 = (xd53 &&& m32) ||| (xd53 <<< 32) in
  let xh53 = t52 +% ((h52 >>> 2) ^^^ (h52 >>> 13) ^^^ (h52 >>> 22)) +% ((h52 &&& h51) ||| (h50 &&& (h52 ||| h51))) in
  let h53 = (xh53 &&& m32) ||| (xh53 <<< 32) in
  let w53 = (dw37 >>> 32) +% ((dw38 >>> 7) ^^^ (dw38 >>> 18) ^^^ (dw38 >>> 35)) +% (dw46 >>> 32) +% ((dw51 >>> 17) ^^^ (dw51 >>> 19) ^^^ (dw51 >>> 42)) in
  let dw53 = (w53 &&& m32) ||| (w53 <<< 32) in
  let t53 = d50 +% ((d53 >>> 6) ^^^ (d53 >>> 11) ^^^ (d53 >>> 25)) +% (d51 ^^^ (d53 &&& (d52 ^^^ d51))) +% 1322822218L +% w53 in
  let xd54 = h50 +% t53 in
  let d54 = (xd54 &&& m32) ||| (xd54 <<< 32) in
  let xh54 = t53 +% ((h53 >>> 2) ^^^ (h53 >>> 13) ^^^ (h53 >>> 22)) +% ((h53 &&& h52) ||| (h51 &&& (h53 ||| h52))) in
  let h54 = (xh54 &&& m32) ||| (xh54 <<< 32) in
  let w54 = (dw38 >>> 32) +% ((dw39 >>> 7) ^^^ (dw39 >>> 18) ^^^ (dw39 >>> 35)) +% (dw47 >>> 32) +% ((dw52 >>> 17) ^^^ (dw52 >>> 19) ^^^ (dw52 >>> 42)) in
  let dw54 = (w54 &&& m32) ||| (w54 <<< 32) in
  let t54 = d51 +% ((d54 >>> 6) ^^^ (d54 >>> 11) ^^^ (d54 >>> 25)) +% (d52 ^^^ (d54 &&& (d53 ^^^ d52))) +% 1537002063L +% w54 in
  let xd55 = h51 +% t54 in
  let d55 = (xd55 &&& m32) ||| (xd55 <<< 32) in
  let xh55 = t54 +% ((h54 >>> 2) ^^^ (h54 >>> 13) ^^^ (h54 >>> 22)) +% ((h54 &&& h53) ||| (h52 &&& (h54 ||| h53))) in
  let h55 = (xh55 &&& m32) ||| (xh55 <<< 32) in
  let w55 = (dw39 >>> 32) +% ((dw40 >>> 7) ^^^ (dw40 >>> 18) ^^^ (dw40 >>> 35)) +% (dw48 >>> 32) +% ((dw53 >>> 17) ^^^ (dw53 >>> 19) ^^^ (dw53 >>> 42)) in
  let dw55 = (w55 &&& m32) ||| (w55 <<< 32) in
  let t55 = d52 +% ((d55 >>> 6) ^^^ (d55 >>> 11) ^^^ (d55 >>> 25)) +% (d53 ^^^ (d55 &&& (d54 ^^^ d53))) +% 1747873779L +% w55 in
  let xd56 = h52 +% t55 in
  let d56 = (xd56 &&& m32) ||| (xd56 <<< 32) in
  let xh56 = t55 +% ((h55 >>> 2) ^^^ (h55 >>> 13) ^^^ (h55 >>> 22)) +% ((h55 &&& h54) ||| (h53 &&& (h55 ||| h54))) in
  let h56 = (xh56 &&& m32) ||| (xh56 <<< 32) in
  let w56 = (dw40 >>> 32) +% ((dw41 >>> 7) ^^^ (dw41 >>> 18) ^^^ (dw41 >>> 35)) +% (dw49 >>> 32) +% ((dw54 >>> 17) ^^^ (dw54 >>> 19) ^^^ (dw54 >>> 42)) in
  let dw56 = (w56 &&& m32) ||| (w56 <<< 32) in
  let t56 = d53 +% ((d56 >>> 6) ^^^ (d56 >>> 11) ^^^ (d56 >>> 25)) +% (d54 ^^^ (d56 &&& (d55 ^^^ d54))) +% 1955562222L +% w56 in
  let xd57 = h53 +% t56 in
  let d57 = (xd57 &&& m32) ||| (xd57 <<< 32) in
  let xh57 = t56 +% ((h56 >>> 2) ^^^ (h56 >>> 13) ^^^ (h56 >>> 22)) +% ((h56 &&& h55) ||| (h54 &&& (h56 ||| h55))) in
  let h57 = (xh57 &&& m32) ||| (xh57 <<< 32) in
  let w57 = (dw41 >>> 32) +% ((dw42 >>> 7) ^^^ (dw42 >>> 18) ^^^ (dw42 >>> 35)) +% (dw50 >>> 32) +% ((dw55 >>> 17) ^^^ (dw55 >>> 19) ^^^ (dw55 >>> 42)) in
  let dw57 = (w57 &&& m32) ||| (w57 <<< 32) in
  let t57 = d54 +% ((d57 >>> 6) ^^^ (d57 >>> 11) ^^^ (d57 >>> 25)) +% (d55 ^^^ (d57 &&& (d56 ^^^ d55))) +% 2024104815L +% w57 in
  let xd58 = h54 +% t57 in
  let d58 = (xd58 &&& m32) ||| (xd58 <<< 32) in
  let xh58 = t57 +% ((h57 >>> 2) ^^^ (h57 >>> 13) ^^^ (h57 >>> 22)) +% ((h57 &&& h56) ||| (h55 &&& (h57 ||| h56))) in
  let h58 = (xh58 &&& m32) ||| (xh58 <<< 32) in
  let w58 = (dw42 >>> 32) +% ((dw43 >>> 7) ^^^ (dw43 >>> 18) ^^^ (dw43 >>> 35)) +% (dw51 >>> 32) +% ((dw56 >>> 17) ^^^ (dw56 >>> 19) ^^^ (dw56 >>> 42)) in
  let dw58 = (w58 &&& m32) ||| (w58 <<< 32) in
  let t58 = d55 +% ((d58 >>> 6) ^^^ (d58 >>> 11) ^^^ (d58 >>> 25)) +% (d56 ^^^ (d58 &&& (d57 ^^^ d56))) +% 2227730452L +% w58 in
  let xd59 = h55 +% t58 in
  let d59 = (xd59 &&& m32) ||| (xd59 <<< 32) in
  let xh59 = t58 +% ((h58 >>> 2) ^^^ (h58 >>> 13) ^^^ (h58 >>> 22)) +% ((h58 &&& h57) ||| (h56 &&& (h58 ||| h57))) in
  let h59 = (xh59 &&& m32) ||| (xh59 <<< 32) in
  let w59 = (dw43 >>> 32) +% ((dw44 >>> 7) ^^^ (dw44 >>> 18) ^^^ (dw44 >>> 35)) +% (dw52 >>> 32) +% ((dw57 >>> 17) ^^^ (dw57 >>> 19) ^^^ (dw57 >>> 42)) in
  let dw59 = (w59 &&& m32) ||| (w59 <<< 32) in
  let t59 = d56 +% ((d59 >>> 6) ^^^ (d59 >>> 11) ^^^ (d59 >>> 25)) +% (d57 ^^^ (d59 &&& (d58 ^^^ d57))) +% 2361852424L +% w59 in
  let xd60 = h56 +% t59 in
  let d60 = (xd60 &&& m32) ||| (xd60 <<< 32) in
  let xh60 = t59 +% ((h59 >>> 2) ^^^ (h59 >>> 13) ^^^ (h59 >>> 22)) +% ((h59 &&& h58) ||| (h57 &&& (h59 ||| h58))) in
  let h60 = (xh60 &&& m32) ||| (xh60 <<< 32) in
  let w60 = (dw44 >>> 32) +% ((dw45 >>> 7) ^^^ (dw45 >>> 18) ^^^ (dw45 >>> 35)) +% (dw53 >>> 32) +% ((dw58 >>> 17) ^^^ (dw58 >>> 19) ^^^ (dw58 >>> 42)) in
  let dw60 = (w60 &&& m32) ||| (w60 <<< 32) in
  let t60 = d57 +% ((d60 >>> 6) ^^^ (d60 >>> 11) ^^^ (d60 >>> 25)) +% (d58 ^^^ (d60 &&& (d59 ^^^ d58))) +% 2428436474L +% w60 in
  let xd61 = h57 +% t60 in
  let d61 = (xd61 &&& m32) ||| (xd61 <<< 32) in
  let xh61 = t60 +% ((h60 >>> 2) ^^^ (h60 >>> 13) ^^^ (h60 >>> 22)) +% ((h60 &&& h59) ||| (h58 &&& (h60 ||| h59))) in
  let h61 = (xh61 &&& m32) ||| (xh61 <<< 32) in
  let w61 = (dw45 >>> 32) +% ((dw46 >>> 7) ^^^ (dw46 >>> 18) ^^^ (dw46 >>> 35)) +% (dw54 >>> 32) +% ((dw59 >>> 17) ^^^ (dw59 >>> 19) ^^^ (dw59 >>> 42)) in
  let dw61 = (w61 &&& m32) ||| (w61 <<< 32) in
  let t61 = d58 +% ((d61 >>> 6) ^^^ (d61 >>> 11) ^^^ (d61 >>> 25)) +% (d59 ^^^ (d61 &&& (d60 ^^^ d59))) +% 2756734187L +% w61 in
  let xd62 = h58 +% t61 in
  let d62 = (xd62 &&& m32) ||| (xd62 <<< 32) in
  let xh62 = t61 +% ((h61 >>> 2) ^^^ (h61 >>> 13) ^^^ (h61 >>> 22)) +% ((h61 &&& h60) ||| (h59 &&& (h61 ||| h60))) in
  let h62 = (xh62 &&& m32) ||| (xh62 <<< 32) in
  let w62 = (dw46 >>> 32) +% ((dw47 >>> 7) ^^^ (dw47 >>> 18) ^^^ (dw47 >>> 35)) +% (dw55 >>> 32) +% ((dw60 >>> 17) ^^^ (dw60 >>> 19) ^^^ (dw60 >>> 42)) in
  let t62 = d59 +% ((d62 >>> 6) ^^^ (d62 >>> 11) ^^^ (d62 >>> 25)) +% (d60 ^^^ (d62 &&& (d61 ^^^ d60))) +% 3204031479L +% w62 in
  let xd63 = h59 +% t62 in
  let d63 = (xd63 &&& m32) ||| (xd63 <<< 32) in
  let xh63 = t62 +% ((h62 >>> 2) ^^^ (h62 >>> 13) ^^^ (h62 >>> 22)) +% ((h62 &&& h61) ||| (h60 &&& (h62 ||| h61))) in
  let h63 = (xh63 &&& m32) ||| (xh63 <<< 32) in
  let w63 = (dw47 >>> 32) +% ((dw48 >>> 7) ^^^ (dw48 >>> 18) ^^^ (dw48 >>> 35)) +% (dw56 >>> 32) +% ((dw61 >>> 17) ^^^ (dw61 >>> 19) ^^^ (dw61 >>> 42)) in
  let t63 = d60 +% ((d63 >>> 6) ^^^ (d63 >>> 11) ^^^ (d63 >>> 25)) +% (d61 ^^^ (d63 &&& (d62 ^^^ d61))) +% 3329325298L +% w63 in
  let xd64 = h60 +% t63 in
  let d64 = (xd64 &&& m32) ||| (xd64 <<< 32) in
  let xh64 = t63 +% ((h63 >>> 2) ^^^ (h63 >>> 13) ^^^ (h63 >>> 22)) +% ((h63 &&& h62) ||| (h61 &&& (h63 ||| h62))) in
  let h64 = (xh64 &&& m32) ||| (xh64 <<< 32) in
  Array.unsafe_set h 0 ((Array.unsafe_get h 0 + Int64.to_int (h64 &&& m32)) land 0xffffffff);
  Array.unsafe_set h 1 ((Array.unsafe_get h 1 + Int64.to_int (h63 &&& m32)) land 0xffffffff);
  Array.unsafe_set h 2 ((Array.unsafe_get h 2 + Int64.to_int (h62 &&& m32)) land 0xffffffff);
  Array.unsafe_set h 3 ((Array.unsafe_get h 3 + Int64.to_int (h61 &&& m32)) land 0xffffffff);
  Array.unsafe_set h 4 ((Array.unsafe_get h 4 + Int64.to_int (d64 &&& m32)) land 0xffffffff);
  Array.unsafe_set h 5 ((Array.unsafe_get h 5 + Int64.to_int (d63 &&& m32)) land 0xffffffff);
  Array.unsafe_set h 6 ((Array.unsafe_get h 6 + Int64.to_int (d62 &&& m32)) land 0xffffffff);
  Array.unsafe_set h 7 ((Array.unsafe_get h 7 + Int64.to_int (d61 &&& m32)) land 0xffffffff);
  ()
(* GENERATED-KERNEL-END *)

(* Compress the [n] whole blocks starting at [b.[pos]]. *)
let compress_blocks ctx b pos n =
  if ctx.use_native then native_blocks ctx.h b pos n
  else
    for i = 0 to n - 1 do
      compress_block ctx.h b (pos + (i * 64))
    done

let compress ctx = compress_blocks ctx ctx.block 0 1

let update_bytes ctx b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Sha256.update_bytes";
  ctx.total <- ctx.total + len;
  let pos = ref pos and len = ref len in
  (* Top up a partially filled block first. *)
  if ctx.fill > 0 && !len > 0 then begin
    let n = min !len (64 - ctx.fill) in
    Bytes.blit b !pos ctx.block ctx.fill n;
    ctx.fill <- ctx.fill + n;
    pos := !pos + n;
    len := !len - n;
    if ctx.fill = 64 then begin
      compress ctx;
      ctx.fill <- 0
    end
  end;
  (* Whole blocks stream straight from [b]; no copy into [ctx.block]. *)
  if ctx.fill = 0 && !len >= 64 then begin
    let n = !len / 64 in
    compress_blocks ctx b !pos n;
    pos := !pos + (n * 64);
    len := !len - (n * 64)
  end;
  if !len > 0 then begin
    Bytes.blit b !pos ctx.block ctx.fill !len;
    ctx.fill <- ctx.fill + !len
  end

let update_sub ctx s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Sha256.update_sub";
  (* Sound: the kernel and [blit] only ever read from the buffer. *)
  update_bytes ctx (Bytes.unsafe_of_string s) ~pos ~len

let update ctx s = update_sub ctx s ~pos:0 ~len:(String.length s)

let update_char ctx c =
  ctx.total <- ctx.total + 1;
  Bytes.set ctx.block ctx.fill c;
  ctx.fill <- ctx.fill + 1;
  if ctx.fill = 64 then begin
    compress ctx;
    ctx.fill <- 0
  end

let finalize_into ctx out ~pos =
  if pos < 0 || pos + 32 > Bytes.length out then
    invalid_arg "Sha256.finalize_into";
  let bitlen = ctx.total * 8 in
  (* Padding: 0x80, zeros, then 64-bit big-endian bit length. *)
  Bytes.set ctx.block ctx.fill '\x80';
  ctx.fill <- ctx.fill + 1;
  if ctx.fill > 56 then begin
    Bytes.fill ctx.block ctx.fill (64 - ctx.fill) '\x00';
    compress ctx;
    ctx.fill <- 0
  end;
  Bytes.fill ctx.block ctx.fill (56 - ctx.fill) '\x00';
  Bytes.set_int64_be ctx.block 56 (Int64.of_int bitlen);
  compress ctx;
  let h = ctx.h in
  for i = 0 to 7 do
    let x = h.(i) and o = pos + (i * 4) in
    Bytes.unsafe_set out o (Char.unsafe_chr (x lsr 24));
    Bytes.unsafe_set out (o + 1) (Char.unsafe_chr ((x lsr 16) land 0xff));
    Bytes.unsafe_set out (o + 2) (Char.unsafe_chr ((x lsr 8) land 0xff));
    Bytes.unsafe_set out (o + 3) (Char.unsafe_chr (x land 0xff))
  done

let finalize ctx =
  let out = Bytes.create 32 in
  finalize_into ctx out ~pos:0;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let digest_strings ss =
  let ctx = init () in
  List.iter (update ctx) ss;
  finalize ctx
