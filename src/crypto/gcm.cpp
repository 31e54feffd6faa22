#include "crypto/gcm.hpp"

#include <cstring>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "crypto/ctr.hpp"

namespace datablinder::crypto {

namespace {

/// J0 = nonce || 0^31 || 1 for 96-bit nonces; the payload's CTR starts at
/// inc32(J0).
std::array<std::uint8_t, 16> initial_counter(BytesView nonce, std::uint8_t last) {
  std::array<std::uint8_t, 16> j{};
  std::memcpy(j.data(), nonce.data(), AesGcm::kNonceSize);
  j[15] = last;
  return j;
}

void store_be64(std::uint64_t v, std::uint8_t* p) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * (7 - i)));
}

}  // namespace

AesGcm::AesGcm(BytesView key) : AesGcm(key, detail::active_kernels()) {}

AesGcm::AesGcm(const SecretBytes& key) : AesGcm(key.expose_secret()) {}

AesGcm::AesGcm(BytesView key, const detail::AesKernels& kernels) : aes_(key, kernels) {
  std::uint8_t h[Aes::kBlockSize] = {0};
  aes_.encrypt_block(h);
  kernels.ghash_init(h, ghash_key_);
  secure_wipe(h);
}

void AesGcm::compute_tag(BytesView nonce, BytesView aad, BytesView ciphertext,
                         std::uint8_t tag[kTagSize]) const {
  const detail::AesKernels& k = aes_.kernels();
  std::uint8_t y[16] = {0};
  auto absorb = [&](BytesView data) {
    const std::size_t full = data.size() / 16;
    if (full > 0) k.ghash_blocks(ghash_key_, y, data.data(), full);
    if (const std::size_t rest = data.size() % 16; rest > 0) {
      std::uint8_t block[16] = {0};
      std::memcpy(block, data.data() + 16 * full, rest);
      k.ghash_blocks(ghash_key_, y, block, 1);
    }
  };
  absorb(aad);
  absorb(ciphertext);
  // Length block: 64-bit bit-lengths of AAD and ciphertext.
  std::uint8_t len_block[16] = {};
  store_be64(static_cast<std::uint64_t>(aad.size()) * 8, len_block);
  store_be64(static_cast<std::uint64_t>(ciphertext.size()) * 8, len_block + 8);
  k.ghash_blocks(ghash_key_, y, len_block, 1);

  auto ek_j0 = initial_counter(nonce, 1);
  aes_.encrypt_block(ek_j0.data());
  for (std::size_t i = 0; i < kTagSize; ++i) tag[i] = y[i] ^ ek_j0[i];
}

void AesGcm::seal_into(BytesView nonce, BytesView plaintext, BytesView aad,
                       std::uint8_t* out) const {
  require(nonce.size() == kNonceSize, "AesGcm: nonce must be 12 bytes");
  if (!plaintext.empty()) std::memcpy(out, plaintext.data(), plaintext.size());
  aes_ctr_xcrypt(aes_, initial_counter(nonce, 2), {out, plaintext.size()});
  compute_tag(nonce, aad, {out, plaintext.size()}, out + plaintext.size());
}

Bytes AesGcm::seal(BytesView nonce, BytesView plaintext, BytesView aad) const {
  Bytes out(plaintext.size() + kTagSize);
  seal_into(nonce, plaintext, aad, out.data());
  return out;
}

Bytes AesGcm::seal_random_nonce(BytesView plaintext, BytesView aad) const {
  Bytes out(kNonceSize + plaintext.size() + kTagSize);
  SecureRng::fill({out.data(), kNonceSize});
  seal_into(BytesView(out).first(kNonceSize), plaintext, aad, out.data() + kNonceSize);
  return out;
}

std::optional<Bytes> AesGcm::open(BytesView nonce, BytesView sealed, BytesView aad) const {
  if (nonce.size() != kNonceSize || sealed.size() < kTagSize) return std::nullopt;
  const BytesView ciphertext = sealed.first(sealed.size() - kTagSize);

  std::uint8_t tag[kTagSize] = {};
  compute_tag(nonce, aad, ciphertext, tag);
  if (!ct_equal(BytesView(tag, kTagSize), sealed.last(kTagSize))) return std::nullopt;

  Bytes plaintext(ciphertext.begin(), ciphertext.end());
  aes_ctr_xcrypt(aes_, initial_counter(nonce, 2), plaintext);
  return plaintext;
}

std::optional<Bytes> AesGcm::open_with_nonce(BytesView sealed, BytesView aad) const {
  if (sealed.size() < kNonceSize + kTagSize) return std::nullopt;
  return open(sealed.first(kNonceSize), sealed.subspan(kNonceSize), aad);
}

}  // namespace datablinder::crypto
