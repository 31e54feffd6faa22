#include "sse/mitra_stateless.hpp"

#include <unordered_map>

#include "common/status.hpp"
#include "crypto/gcm.hpp"
#include "crypto/prf.hpp"

namespace datablinder::sse {

namespace {
Bytes keyword_input(const std::string& keyword, std::uint64_t count, std::uint8_t role) {
  Bytes input = to_bytes(keyword);
  append(input, be64(count));
  input.push_back(role);
  return input;
}
}  // namespace

void MitraStatelessServer::put_counter(const Bytes& label, Bytes encrypted_counter) {
  counters_.put(label, std::move(encrypted_counter));
}

std::optional<Bytes> MitraStatelessServer::get_counter(const Bytes& label) const {
  return counters_.get(label);
}

void MitraStatelessServer::apply_update(const MitraUpdateToken& token) {
  entries_.put(token.address, token.value);
}

std::vector<Bytes> MitraStatelessServer::search(const MitraSearchToken& token) const {
  std::vector<Bytes> out;
  out.reserve(token.addresses.size());
  for (const auto& addr : token.addresses) {
    if (auto v = entries_.get(addr)) out.push_back(std::move(*v));
  }
  return out;
}

MitraStatelessClient::MitraStatelessClient(BytesView key)
    : key_(key),
      counter_cipher_(SecretBytes(crypto::prf_labeled(key, "mitra-sl-counter", {}))) {
  require(!key.empty(), "MitraStatelessClient: empty key");
}

MitraStatelessClient::MitraStatelessClient(const SecretBytes& key)
    : MitraStatelessClient(key.expose_secret()) {}

Bytes MitraStatelessClient::counter_label(const std::string& keyword) const {
  return key_.prf_labeled("mitra-sl-slot", to_bytes(keyword));
}

std::uint64_t MitraStatelessClient::decode_counter(
    const std::string& keyword, const std::optional<Bytes>& blob) const {
  if (!blob) return 0;
  auto plain = counter_cipher_.open_with_nonce(*blob, to_bytes(keyword));
  if (!plain || plain->size() != 8) {
    throw_error(ErrorCode::kCryptoFailure, "mitra-stateless: bad counter blob");
  }
  return read_be64(*plain);
}

Bytes MitraStatelessClient::encode_counter(const std::string& keyword,
                                           std::uint64_t count) const {
  // Probabilistic: re-encryptions of the same count are unlinkable.
  return counter_cipher_.seal_random_nonce(be64(count), to_bytes(keyword));
}

MitraUpdateToken MitraStatelessClient::update(MitraOp op, const std::string& keyword,
                                              const DocId& id,
                                              std::uint64_t current_count) const {
  const std::uint64_t c = current_count + 1;
  MitraUpdateToken token;
  token.address = key_.prf(keyword_input(keyword, c, 0));
  Bytes payload;
  payload.push_back(static_cast<std::uint8_t>(op));
  append(payload, to_bytes(id));
  xor_inplace(payload, key_.prf_n(keyword_input(keyword, c, 1), payload.size()));
  token.value = std::move(payload);
  return token;
}

MitraSearchToken MitraStatelessClient::search_token(const std::string& keyword,
                                                    std::uint64_t count) const {
  MitraSearchToken token;
  token.addresses.reserve(count);
  for (std::uint64_t i = 1; i <= count; ++i) {
    token.addresses.push_back(key_.prf(keyword_input(keyword, i, 0)));
  }
  return token;
}

std::vector<DocId> MitraStatelessClient::resolve(const std::string& keyword,
                                                 const std::vector<Bytes>& values) const {
  std::unordered_map<DocId, bool> live;
  std::vector<DocId> order;
  for (std::size_t i = 0; i < values.size(); ++i) {
    Bytes payload = values[i];
    xor_inplace(payload, key_.prf_n(keyword_input(keyword, i + 1, 1), payload.size()));
    require(!payload.empty(), "mitra-stateless: empty payload");
    const auto op = static_cast<MitraOp>(payload[0]);
    DocId id(reinterpret_cast<const char*>(payload.data() + 1), payload.size() - 1);
    if (op == MitraOp::kAdd) {
      if (!live.count(id)) order.push_back(id);
      live[id] = true;
    } else {
      live[id] = false;
    }
  }
  std::vector<DocId> out;
  for (const auto& id : order) {
    if (live[id]) out.push_back(id);
  }
  return out;
}

}  // namespace datablinder::sse
