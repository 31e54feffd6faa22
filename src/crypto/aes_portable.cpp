// Portable AES and GHASH kernels, and the CPUID choice between them and the
// hardware set (aes_kernels.hpp). These are the reference the hardware
// kernels are tested against; they look up the S-box by secret bytes and
// branch on secret GHASH bits, so they are not constant-time.
#include <cstring>
#include <utility>

#include "crypto/aes_kernels.hpp"

namespace datablinder::crypto::detail {

namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

inline std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

std::uint32_t sub_word(std::uint32_t w) {
  std::uint32_t out = 0;
  for (unsigned i = 0; i < 4; ++i) {
    out |= static_cast<std::uint32_t>(kSbox[(w >> (8 * i)) & 0xff]) << (8 * i);
  }
  return out;
}

void encrypt_block(const std::uint8_t* round_keys, std::size_t rounds,
                   std::uint8_t s[16]) {
  auto add_round_key = [&](std::size_t round) {
    for (std::size_t i = 0; i < 16; ++i) s[i] ^= round_keys[round * 16 + i];
  };
  auto sub_bytes = [&] {
    for (std::size_t i = 0; i < 16; ++i) s[i] = kSbox[s[i]];
  };
  auto shift_rows = [&] {
    std::uint8_t t;
    // Row 1 rotate left by 1; state is column-major: s[row + 4*col].
    t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
    // Row 2 rotate by 2.
    std::swap(s[2], s[10]); std::swap(s[6], s[14]);
    // Row 3 rotate left by 3 (== right by 1).
    t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
  };
  auto mix_columns = [&] {
    for (std::size_t c = 0; c < 4; ++c) {
      std::uint8_t* col = s + 4 * c;
      const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      col[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
      col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
      col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
      col[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
    }
  };

  add_round_key(0);
  for (std::size_t round = 1; round < rounds; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(rounds);
}

void ctr_xcrypt(const std::uint8_t* round_keys, std::size_t rounds,
                const std::uint8_t counter0[16], std::uint8_t* data, std::size_t len) {
  std::uint8_t counter[16];
  std::memcpy(counter, counter0, 16);
  for (std::size_t offset = 0; offset < len; offset += 16) {
    std::uint8_t keystream[16];
    std::memcpy(keystream, counter, 16);
    encrypt_block(round_keys, rounds, keystream);
    const std::size_t take = len - offset < 16 ? len - offset : 16;
    for (std::size_t i = 0; i < take; ++i) data[offset + i] ^= keystream[i];
    for (int i = 15; i >= 0; --i) {
      if (++counter[i] != 0) break;
    }
  }
}

struct U128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
};

U128 load128(const std::uint8_t* p) {
  U128 v;
  for (int i = 0; i < 8; ++i) v.hi = (v.hi << 8) | p[i];
  for (int i = 8; i < 16; ++i) v.lo = (v.lo << 8) | p[i];
  return v;
}

void store128(const U128& v, std::uint8_t* p) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v.hi >> (8 * (7 - i)));
  for (int i = 0; i < 8; ++i) p[8 + i] = static_cast<std::uint8_t>(v.lo >> (8 * (7 - i)));
}

// GF(2^128) multiplication per SP 800-38D, bitwise (right-shift) variant.
U128 gf_mul(const U128& x, const U128& y) {
  U128 z;             // accumulator
  U128 v = y;
  for (int i = 0; i < 128; ++i) {
    const std::uint64_t bit =
        (i < 64) ? (x.hi >> (63 - i)) & 1 : (x.lo >> (127 - i)) & 1;
    if (bit) {
      z.hi ^= v.hi;
      z.lo ^= v.lo;
    }
    const bool lsb = v.lo & 1;
    v.lo = (v.lo >> 1) | (v.hi << 63);
    v.hi >>= 1;
    if (lsb) v.hi ^= 0xe100000000000000ULL;  // reduction polynomial R
  }
  return z;
}

void ghash_init(const std::uint8_t h[16], GhashKey& key) {
  const U128 h1 = load128(h);
  U128 p = h1;
  for (std::size_t i = 0; i < GhashKey::kPowers; ++i) {
    if (i > 0) p = gf_mul(p, h1);
    key.h[2 * i] = p.hi;
    key.h[2 * i + 1] = p.lo;
  }
}

void ghash_blocks(const GhashKey& key, std::uint8_t y[16], const std::uint8_t* blocks,
                  std::size_t nblocks) {
  const U128 h{key.h[0], key.h[1]};
  U128 acc = load128(y);
  for (std::size_t b = 0; b < nblocks; ++b) {
    const U128 x = load128(blocks + 16 * b);
    acc.hi ^= x.hi;
    acc.lo ^= x.lo;
    acc = gf_mul(acc, h);
  }
  store128(acc, y);
}

constexpr AesKernels kPortable = {"portable", sub_word,   encrypt_block,
                                  ctr_xcrypt, ghash_init, ghash_blocks};

}  // namespace

const AesKernels& portable_kernels() { return kPortable; }

const AesKernels& active_kernels() {
  static const AesKernels& chosen = []() -> const AesKernels& {
    const AesKernels* hw = hardware_kernels();
    return hw != nullptr ? *hw : kPortable;
  }();
  return chosen;
}

}  // namespace datablinder::crypto::detail
