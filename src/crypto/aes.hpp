// AES-128/192/256 block cipher (FIPS 197).
//
// The forward direction runs on the kernel set chosen once by CPUID
// (aes_kernels.hpp): AES-NI where the CPU has it, the portable table S-box
// otherwise, with identical output. The modes built on top (CTR, GCM, SIV)
// only require the forward direction; the inverse cipher is portable only
// and is provided for completeness of the primitive library.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"
#include "common/secret.hpp"

namespace datablinder::crypto {

namespace detail {
struct AesKernels;
}  // namespace detail

class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;

  /// Key must be 16, 24 or 32 bytes; throws Error(kInvalidArgument) otherwise.
  explicit Aes(BytesView key);
  explicit Aes(const SecretBytes& key);
  /// Binds `kernels` instead of the CPUID choice; lets the differential
  /// tests run the portable and hardware sets side by side.
  Aes(BytesView key, const detail::AesKernels& kernels);

  Aes(const Aes&) = default;
  Aes& operator=(const Aes&) = default;
  /// The expanded key schedule is secret-derived: wipe it on destruction.
  ~Aes() { secure_wipe(round_keys_); }

  /// Encrypts one 16-byte block in place.
  void encrypt_block(std::uint8_t block[kBlockSize]) const;

  /// Decrypts one 16-byte block in place.
  void decrypt_block(std::uint8_t block[kBlockSize]) const;

  /// Convenience: encrypt a single block by value.
  std::array<std::uint8_t, kBlockSize> encrypt(
      const std::array<std::uint8_t, kBlockSize>& in) const;

  std::size_t rounds() const noexcept { return rounds_; }

  /// The kernel set this key schedule runs on.
  const detail::AesKernels& kernels() const noexcept { return *kernels_; }

 private:
  friend void aes_ctr_xcrypt(const Aes& aes,
                             std::array<std::uint8_t, kBlockSize> counter0,
                             std::span<std::uint8_t> data);

  void expand_key(BytesView key);

  // Round keys: (rounds_+1) * 16 bytes.
  std::array<std::uint8_t, 15 * kBlockSize> round_keys_{};
  std::size_t rounds_ = 0;
  const detail::AesKernels* kernels_;
};

}  // namespace datablinder::crypto
