// AES-GCM authenticated encryption (NIST SP 800-38D).
//
// This is the RND tactic's cipher and the general-purpose AEAD for
// document payloads: probabilistic, tamper-evident, with optional
// associated data (used to bind ciphertexts to document ids).
//
// CTR and GHASH run on the key's AES kernel set (aes_kernels.hpp): AES-NI
// with a PCLMULQDQ GHASH where the CPU has them, the portable reference
// otherwise. Both produce the same bytes.
#pragma once

#include <optional>

#include "common/bytes.hpp"
#include "common/secret.hpp"
#include "crypto/aes.hpp"
#include "crypto/aes_kernels.hpp"

namespace datablinder::crypto {

class AesGcm {
 public:
  static constexpr std::size_t kNonceSize = 12;
  static constexpr std::size_t kTagSize = 16;

  /// Key must be 16, 24 or 32 bytes.
  explicit AesGcm(BytesView key);
  explicit AesGcm(const SecretBytes& key);
  /// Runs on `kernels` instead of the CPUID choice (differential tests).
  AesGcm(BytesView key, const detail::AesKernels& kernels);

  AesGcm(const AesGcm&) = default;
  AesGcm& operator=(const AesGcm&) = default;
  /// The GHASH subkey is AES_K(0): key-derived, wiped on destruction.
  ~AesGcm() {
    secure_wipe({reinterpret_cast<std::uint8_t*>(ghash_key_.h.data()),
                 sizeof(ghash_key_.h)});
  }

  /// Encrypts with a caller-provided 12-byte nonce. Output layout is
  /// ciphertext || tag. Nonces MUST be unique per key.
  Bytes seal(BytesView nonce, BytesView plaintext, BytesView aad = {}) const;

  /// Encrypts with a fresh random nonce; output is nonce || ciphertext || tag.
  Bytes seal_random_nonce(BytesView plaintext, BytesView aad = {}) const;

  /// Decrypts ciphertext || tag. Returns nullopt on authentication failure.
  std::optional<Bytes> open(BytesView nonce, BytesView sealed, BytesView aad = {}) const;

  /// Decrypts nonce || ciphertext || tag produced by seal_random_nonce.
  std::optional<Bytes> open_with_nonce(BytesView sealed, BytesView aad = {}) const;

 private:
  /// Writes ciphertext || tag for `plaintext` to `out` (plaintext.size() +
  /// kTagSize bytes).
  void seal_into(BytesView nonce, BytesView plaintext, BytesView aad, std::uint8_t* out) const;
  /// tag = GHASH_H(aad, ciphertext) ^ AES_K(J0).
  void compute_tag(BytesView nonce, BytesView aad, BytesView ciphertext,
                   std::uint8_t tag[kTagSize]) const;

  Aes aes_;
  detail::GhashKey ghash_key_;  // H = AES_K(0^128) and its powers
};

}  // namespace datablinder::crypto
