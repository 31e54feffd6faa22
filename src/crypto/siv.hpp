// Deterministic authenticated encryption (SIV construction, RFC 5297 style
// with HMAC-SHA256 as the S2V PRF).
//
// This is the DET tactic's cipher: equal plaintexts under the same key and
// associated data produce equal ciphertexts, enabling server-side equality
// matching at the cost of leaking equality (protection Class 4).
#pragma once

#include <optional>

#include "common/bytes.hpp"
#include "common/secret.hpp"
#include "crypto/aes.hpp"

namespace datablinder::crypto {

class AesSiv {
 public:
  static constexpr std::size_t kIvSize = 16;

  /// Key must be 32 bytes; it is split into a MAC half and a CTR half.
  explicit AesSiv(BytesView key);
  explicit AesSiv(const SecretBytes& key);

  /// Deterministic encryption: output = SIV || ciphertext.
  Bytes seal(BytesView plaintext, BytesView aad = {}) const;

  /// Returns nullopt if the synthetic IV does not authenticate.
  std::optional<Bytes> open(BytesView sealed, BytesView aad = {}) const;

 private:
  Bytes compute_siv(BytesView plaintext, BytesView aad) const;

  SecretBytes mac_key_;
  Aes ctr_;  // expanded CTR-half schedule, wiped by ~Aes
};

}  // namespace datablinder::crypto
