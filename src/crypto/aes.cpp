#include "crypto/aes.hpp"

#include <cstring>

#include "common/status.hpp"
#include "crypto/aes_kernels.hpp"

namespace datablinder::crypto {

namespace {

constexpr std::uint8_t kInvSbox[256] = {
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e,
    0x81, 0xf3, 0xd7, 0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87,
    0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32,
    0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16,
    0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50,
    0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05,
    0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41,
    0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8,
    0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89,
    0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59,
    0x27, 0x80, 0xec, 0x5f, 0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d,
    0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0, 0xe0, 0x3b, 0x4d,
    0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63,
    0x55, 0x21, 0x0c, 0x7d};

inline std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

inline std::uint8_t gmul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

}  // namespace

Aes::Aes(BytesView key) : Aes(key, detail::active_kernels()) {}

Aes::Aes(const SecretBytes& key) : Aes(key.expose_secret()) {}

Aes::Aes(BytesView key, const detail::AesKernels& kernels) : kernels_(&kernels) {
  require(key.size() == 16 || key.size() == 24 || key.size() == 32,
          "Aes: key must be 16, 24 or 32 bytes");
  expand_key(key);
}

void Aes::expand_key(BytesView key) {
  const std::size_t nk = key.size() / 4;           // key length in words
  rounds_ = nk + 6;                                // 10 / 12 / 14
  const std::size_t total_words = 4 * (rounds_ + 1);

  std::uint8_t w[60][4];
  for (std::size_t i = 0; i < nk; ++i) {
    for (std::size_t j = 0; j < 4; ++j) w[i][j] = key[4 * i + j];
  }
  auto sub_word = [this](std::uint8_t word[4]) {
    std::uint32_t v = 0;
    std::memcpy(&v, word, 4);
    v = kernels_->sub_word(v);
    std::memcpy(word, &v, 4);
  };
  std::uint8_t rcon = 0x01;
  for (std::size_t i = nk; i < total_words; ++i) {
    std::uint8_t temp[4] = {w[i - 1][0], w[i - 1][1], w[i - 1][2], w[i - 1][3]};
    if (i % nk == 0) {
      // RotWord + SubWord + Rcon
      const std::uint8_t t = temp[0];
      temp[0] = temp[1];
      temp[1] = temp[2];
      temp[2] = temp[3];
      temp[3] = t;
      sub_word(temp);
      temp[0] ^= rcon;
      rcon = xtime(rcon);
    } else if (nk > 6 && i % nk == 4) {
      sub_word(temp);
    }
    for (std::size_t j = 0; j < 4; ++j) w[i][j] = w[i - nk][j] ^ temp[j];
  }
  for (std::size_t i = 0; i < total_words; ++i) {
    std::memcpy(&round_keys_[4 * i], w[i], 4);
  }
  secure_wipe({&w[0][0], sizeof(w)});
}

void Aes::encrypt_block(std::uint8_t block[kBlockSize]) const {
  kernels_->encrypt_block(round_keys_.data(), rounds_, block);
}

void Aes::decrypt_block(std::uint8_t s[kBlockSize]) const {
  auto add_round_key = [&](std::size_t round) {
    for (std::size_t i = 0; i < kBlockSize; ++i) s[i] ^= round_keys_[round * 16 + i];
  };
  auto inv_sub_bytes = [&] {
    for (std::size_t i = 0; i < kBlockSize; ++i) s[i] = kInvSbox[s[i]];
  };
  auto inv_shift_rows = [&] {
    std::uint8_t t;
    // Row 1 rotate right by 1.
    t = s[13]; s[13] = s[9]; s[9] = s[5]; s[5] = s[1]; s[1] = t;
    std::swap(s[2], s[10]); std::swap(s[6], s[14]);
    // Row 3 rotate right by 3 (== left by 1).
    t = s[3]; s[3] = s[7]; s[7] = s[11]; s[11] = s[15]; s[15] = t;
  };
  auto inv_mix_columns = [&] {
    for (std::size_t c = 0; c < 4; ++c) {
      std::uint8_t* col = s + 4 * c;
      const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      col[0] = gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^ gmul(a3, 9);
      col[1] = gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^ gmul(a3, 13);
      col[2] = gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^ gmul(a3, 11);
      col[3] = gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^ gmul(a3, 14);
    }
  };

  add_round_key(rounds_);
  for (std::size_t round = rounds_ - 1; round >= 1; --round) {
    inv_shift_rows();
    inv_sub_bytes();
    add_round_key(round);
    inv_mix_columns();
  }
  inv_shift_rows();
  inv_sub_bytes();
  add_round_key(0);
}

std::array<std::uint8_t, Aes::kBlockSize> Aes::encrypt(
    const std::array<std::uint8_t, kBlockSize>& in) const {
  auto out = in;
  encrypt_block(out.data());
  return out;
}

}  // namespace datablinder::crypto
