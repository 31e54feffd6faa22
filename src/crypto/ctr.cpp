#include "crypto/ctr.hpp"

#include "crypto/aes_kernels.hpp"

namespace datablinder::crypto {

void aes_ctr_xcrypt(const Aes& aes, std::array<std::uint8_t, Aes::kBlockSize> counter,
                    std::span<std::uint8_t> data) {
  aes.kernels_->ctr_xcrypt(aes.round_keys_.data(), aes.rounds_, counter.data(), data.data(),
                           data.size());
}

Bytes aes_ctr(const Aes& aes, const std::array<std::uint8_t, Aes::kBlockSize>& counter0,
              BytesView data) {
  Bytes out(data.begin(), data.end());
  aes_ctr_xcrypt(aes, counter0, out);
  return out;
}

}  // namespace datablinder::crypto
