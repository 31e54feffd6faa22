// Hardware AES and GHASH kernels for x86-64 (aes_kernels.hpp): AES-NI
// rounds and PCLMULQDQ carry-less multiplication. Each function carries its
// own target attribute, so the rest of the library builds for the baseline
// ISA and these run only after CPUID has confirmed the instructions.
//
// Nothing here indexes memory by, or branches on, key- or data-dependent
// values: the AES rounds are single instructions, the GHASH multiply is
// four carry-less products and a shift/XOR reduction.
#include "crypto/aes_kernels.hpp"

#if defined(__x86_64__)

#include <immintrin.h>

#include <cstring>

#define DB_HW_KERNEL __attribute__((target("aes,pclmul,ssse3,sse4.1")))

namespace datablinder::crypto::detail {

namespace {

constexpr std::size_t kCtrLanes = 8;  // AES blocks in flight per CTR step

DB_HW_KERNEL inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

DB_HW_KERNEL inline void store(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

DB_HW_KERNEL inline __m128i byte_reverse(__m128i v) {
  return _mm_shuffle_epi8(v, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

// --- AES -----------------------------------------------------------------------

DB_HW_KERNEL std::uint32_t sub_word(std::uint32_t w) {
  // With four equal columns ShiftRows is the identity, so AESENCLAST under
  // a zero round key is SubBytes of each column.
  const __m128i v =
      _mm_aesenclast_si128(_mm_set1_epi32(static_cast<int>(w)), _mm_setzero_si128());
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(v));
}

DB_HW_KERNEL void encrypt_block(const std::uint8_t* round_keys, std::size_t rounds,
                                std::uint8_t block[16]) {
  __m128i s = _mm_xor_si128(load(block), load(round_keys));
  for (std::size_t r = 1; r < rounds; ++r) s = _mm_aesenc_si128(s, load(round_keys + 16 * r));
  store(block, _mm_aesenclast_si128(s, load(round_keys + 16 * rounds)));
}

/// The counter block for the 128-bit big-endian value (hi, lo); then
/// increments that value.
DB_HW_KERNEL inline __m128i next_counter(std::uint64_t& hi, std::uint64_t& lo) {
  const __m128i block = _mm_set_epi64x(static_cast<long long>(__builtin_bswap64(lo)),
                                       static_cast<long long>(__builtin_bswap64(hi)));
  if (++lo == 0) ++hi;
  return block;
}

DB_HW_KERNEL void ctr_xcrypt(const std::uint8_t* round_keys, std::size_t rounds,
                             const std::uint8_t counter0[16], std::uint8_t* data,
                             std::size_t len) {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  std::memcpy(&hi, counter0, 8);
  std::memcpy(&lo, counter0 + 8, 8);
  hi = __builtin_bswap64(hi);
  lo = __builtin_bswap64(lo);

  std::size_t offset = 0;
  // Eight independent blocks per round key hide the AESENC latency.
  for (; len - offset >= 16 * kCtrLanes; offset += 16 * kCtrLanes) {
    __m128i b[kCtrLanes];
    const __m128i k0 = load(round_keys);
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kCtrLanes; ++i) b[i] = _mm_xor_si128(next_counter(hi, lo), k0);
    for (std::size_t r = 1; r < rounds; ++r) {
      const __m128i k = load(round_keys + 16 * r);
#pragma GCC unroll 8
      for (std::size_t i = 0; i < kCtrLanes; ++i) b[i] = _mm_aesenc_si128(b[i], k);
    }
    const __m128i k_last = load(round_keys + 16 * rounds);
    std::uint8_t* out = data + offset;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kCtrLanes; ++i) {
      const __m128i ks = _mm_aesenclast_si128(b[i], k_last);
      store(out + 16 * i, _mm_xor_si128(load(out + 16 * i), ks));
    }
  }
  for (; offset < len; offset += 16) {
    __m128i s = _mm_xor_si128(next_counter(hi, lo), load(round_keys));
    for (std::size_t r = 1; r < rounds; ++r) s = _mm_aesenc_si128(s, load(round_keys + 16 * r));
    s = _mm_aesenclast_si128(s, load(round_keys + 16 * rounds));
    if (len - offset >= 16) {
      store(data + offset, _mm_xor_si128(load(data + offset), s));
    } else {
      std::uint8_t keystream[16] = {};
      store(keystream, s);
      for (std::size_t i = 0; i < len - offset; ++i) data[offset + i] ^= keystream[i];
    }
  }
}

// --- GHASH ---------------------------------------------------------------------
//
// Operands are kept byte-reversed, which makes the 128-bit register the
// bit-reflected field element (Gueron & Kounavis, "Intel Carry-Less
// Multiplication Instruction and its Usage for Computing the GCM Mode").
// Products are accumulated unreduced as (lo, mid, hi) and reduced once, so
// a 4-block step pays one reduction:
//   y' = (y ^ X1)·H^4 ^ X2·H^3 ^ X3·H^2 ^ X4·H.

/// (lo, mid, hi) ^= the unreduced 256-bit carry-less product a·b.
DB_HW_KERNEL inline void clmul_acc(__m128i& lo, __m128i& mid, __m128i& hi, __m128i a,
                                   __m128i b) {
  lo = _mm_xor_si128(lo, _mm_clmulepi64_si128(a, b, 0x00));
  hi = _mm_xor_si128(hi, _mm_clmulepi64_si128(a, b, 0x11));
  mid = _mm_xor_si128(mid, _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                                         _mm_clmulepi64_si128(a, b, 0x01)));
}

/// Reduces an accumulated product modulo x^128 + x^7 + x^2 + x + 1.
DB_HW_KERNEL inline __m128i reduce(__m128i lo, __m128i mid, __m128i hi) {
  lo = _mm_xor_si128(lo, _mm_slli_si128(mid, 8));
  hi = _mm_xor_si128(hi, _mm_srli_si128(mid, 8));
  // The product of two reflected operands is one bit short: shift the
  // 256-bit [hi:lo] left by one.
  const __m128i lo_carry = _mm_srli_epi32(lo, 31);
  const __m128i hi_carry = _mm_srli_epi32(hi, 31);
  lo = _mm_or_si128(_mm_slli_epi32(lo, 1), _mm_slli_si128(lo_carry, 4));
  hi = _mm_or_si128(_mm_slli_epi32(hi, 1), _mm_slli_si128(hi_carry, 4));
  hi = _mm_or_si128(hi, _mm_srli_si128(lo_carry, 12));
  // First phase: fold the x^127, x^126, x^121 multiples of the low half.
  const __m128i t = _mm_xor_si128(_mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
                                  _mm_slli_epi32(lo, 25));
  lo = _mm_xor_si128(lo, _mm_slli_si128(t, 12));
  // Second phase: the x, x^2, x^7 terms.
  __m128i u = _mm_xor_si128(_mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
                            _mm_srli_epi32(lo, 7));
  u = _mm_xor_si128(u, _mm_srli_si128(t, 4));
  return _mm_xor_si128(hi, _mm_xor_si128(lo, u));
}

DB_HW_KERNEL inline __m128i gf_mul(__m128i a, __m128i b) {
  __m128i lo = _mm_setzero_si128();
  __m128i mid = _mm_setzero_si128();
  __m128i hi = _mm_setzero_si128();
  clmul_acc(lo, mid, hi, a, b);
  return reduce(lo, mid, hi);
}

DB_HW_KERNEL inline __m128i power(const GhashKey& key, std::size_t i) {
  return _mm_set_epi64x(static_cast<long long>(key.h[2 * i]),
                        static_cast<long long>(key.h[2 * i + 1]));
}

DB_HW_KERNEL void ghash_init(const std::uint8_t h[16], GhashKey& key) {
  const __m128i h1 = byte_reverse(load(h));
  __m128i p = h1;
  for (std::size_t i = 0; i < GhashKey::kPowers; ++i) {
    if (i > 0) p = gf_mul(p, h1);
    key.h[2 * i] = static_cast<std::uint64_t>(_mm_extract_epi64(p, 1));
    key.h[2 * i + 1] = static_cast<std::uint64_t>(_mm_cvtsi128_si64(p));
  }
}

DB_HW_KERNEL void ghash_blocks(const GhashKey& key, std::uint8_t y_bytes[16],
                               const std::uint8_t* blocks, std::size_t nblocks) {
  static_assert(GhashKey::kPowers == 4, "the aggregated step folds four blocks");
  const __m128i h1 = power(key, 0);
  const __m128i h2 = power(key, 1);
  const __m128i h3 = power(key, 2);
  const __m128i h4 = power(key, 3);
  __m128i y = byte_reverse(load(y_bytes));
  std::size_t b = 0;
  for (; b + 4 <= nblocks; b += 4) {
    const std::uint8_t* p = blocks + 16 * b;
    __m128i lo = _mm_setzero_si128();
    __m128i mid = _mm_setzero_si128();
    __m128i hi = _mm_setzero_si128();
    clmul_acc(lo, mid, hi, _mm_xor_si128(y, byte_reverse(load(p))), h4);
    clmul_acc(lo, mid, hi, byte_reverse(load(p + 16)), h3);
    clmul_acc(lo, mid, hi, byte_reverse(load(p + 32)), h2);
    clmul_acc(lo, mid, hi, byte_reverse(load(p + 48)), h1);
    y = reduce(lo, mid, hi);
  }
  for (; b < nblocks; ++b) {
    y = gf_mul(_mm_xor_si128(y, byte_reverse(load(blocks + 16 * b))), h1);
  }
  store(y_bytes, byte_reverse(y));
}

bool cpu_has_kernels() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("aes") && __builtin_cpu_supports("pclmul") &&
         __builtin_cpu_supports("ssse3") && __builtin_cpu_supports("sse4.1");
}

constexpr AesKernels kHardware = {"aes-ni+pclmul", sub_word,   encrypt_block,
                                  ctr_xcrypt,      ghash_init, ghash_blocks};

}  // namespace

const AesKernels* hardware_kernels() {
  static const bool supported = cpu_has_kernels();
  return supported ? &kHardware : nullptr;
}

}  // namespace datablinder::crypto::detail

#else

namespace datablinder::crypto::detail {

const AesKernels* hardware_kernels() { return nullptr; }

}  // namespace datablinder::crypto::detail

#endif
