// Internal: the AES and GHASH kernels behind crypto::Aes, aes_ctr and
// AesGcm.
//
// Two kernel sets implement one interface:
//  * portable — table S-box AES and the bitwise SP 800-38D GHASH multiply.
//    Runs anywhere; it indexes tables by secret bytes and branches on
//    secret bits, so it is not constant-time. It is the fallback and the
//    differential reference for the hardware set.
//  * hardware (x86-64) — AES-NI block encrypt, an AES-NI CTR keystream
//    pipelined over 8 blocks, and a PCLMULQDQ GHASH that folds 4 blocks per
//    reduction against precomputed H..H^4. No table lookups or secret-
//    dependent branches. Compiled through per-function target attributes,
//    so the library needs no -march flag.
//
// The choice is made once, from CPUID: active_kernels() returns the
// hardware set when the CPU has AES-NI, PCLMULQDQ, SSSE3 and SSE4.1 and the
// portable set otherwise. Both produce identical bytes. Code outside
// src/crypto uses the public classes; tests and benchmarks include this
// header to drive each set directly.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace datablinder::crypto::detail {

/// The GHASH subkey and its powers: entry i holds H^(i+1) as the (hi, lo)
/// 64-bit halves of its big-endian block encoding.
struct GhashKey {
  static constexpr std::size_t kPowers = 4;
  std::array<std::uint64_t, 2 * kPowers> h{};
};

struct AesKernels {
  const char* name;
  /// SubWord of the key expansion over the four bytes of `w` (byte 0 in the
  /// low eight bits).
  std::uint32_t (*sub_word)(std::uint32_t w);
  /// Encrypts one block in place under (rounds + 1) 16-byte round keys.
  void (*encrypt_block)(const std::uint8_t* round_keys, std::size_t rounds,
                        std::uint8_t block[16]);
  /// XORs `len` bytes of `data` with the CTR keystream starting at
  /// `counter0`, incremented as a 128-bit big-endian integer per block.
  void (*ctr_xcrypt)(const std::uint8_t* round_keys, std::size_t rounds,
                     const std::uint8_t counter0[16], std::uint8_t* data, std::size_t len);
  /// Fills `key` with H..H^kPowers for the 16-byte subkey `h`.
  void (*ghash_init)(const std::uint8_t h[16], GhashKey& key);
  /// Absorbs `nblocks` whole 16-byte blocks: y = (y ^ X_i) * H for each.
  void (*ghash_blocks)(const GhashKey& key, std::uint8_t y[16], const std::uint8_t* blocks,
                       std::size_t nblocks);
};

const AesKernels& portable_kernels();

/// The hardware set, or nullptr when this CPU (or build target) lacks it.
const AesKernels* hardware_kernels();

/// The set every public crypto class binds to: chosen once by CPUID.
const AesKernels& active_kernels();

}  // namespace datablinder::crypto::detail
