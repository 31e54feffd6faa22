// Mitra-Stateless — a stateless-gateway variant of Mitra, addressing the
// paper's concluding research direction: "the gateway is a stateless data
// access middleware ... there exist some secure SE tactics requiring
// keeping the state at the gateway. A challenging research direction
// towards secure cloud-native systems is to design efficient stateless SE
// schemes."
//
// Construction: the per-keyword counter — the only gateway state in Mitra —
// is itself outsourced, stored at the server under a PRF-derived label and
// encrypted with a keyword-derived key. An update becomes a two-round
// protocol (fetch counter, then write counter+entry); a search becomes the
// same fetch followed by the ordinary Mitra address-list query.
//
// Trade-off (documented, and measurable via the Table 2 bench): the
// counter slot for a keyword is a *fixed* label, so the server learns when
// two updates concern the same keyword — the update pattern leaks keyword
// equality, which plain Mitra hides (forward privacy). Query leakage is
// unchanged (identifiers). The gain is operational: any gateway replica —
// or a rebooted one — can serve updates and searches with no local state
// or state synchronization at all.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/secret.hpp"
#include "crypto/gcm.hpp"
#include "crypto/prf.hpp"
#include "sse/index_common.hpp"
#include "sse/mitra.hpp"

namespace datablinder::sse {

/// Server side reuses the Mitra dictionary plus a second dictionary for
/// encrypted counters.
class MitraStatelessServer {
 public:
  void put_counter(const Bytes& label, Bytes encrypted_counter);
  std::optional<Bytes> get_counter(const Bytes& label) const;

  void apply_update(const MitraUpdateToken& token);
  std::vector<Bytes> search(const MitraSearchToken& token) const;

  const EncryptedDict& entries() const noexcept { return entries_; }
  const EncryptedDict& counters() const noexcept { return counters_; }

 private:
  EncryptedDict entries_;
  EncryptedDict counters_;
};

/// Client side: key material only — NO mutable state. Every instance
/// constructed from the same key is interchangeable at any time.
class MitraStatelessClient {
 public:
  explicit MitraStatelessClient(BytesView key);
  explicit MitraStatelessClient(const SecretBytes& key);

  /// The fixed counter-slot label for a keyword (request payload of the
  /// first protocol round).
  Bytes counter_label(const std::string& keyword) const;

  /// Decrypts the stored counter blob (0 when absent).
  std::uint64_t decode_counter(const std::string& keyword,
                               const std::optional<Bytes>& blob) const;

  /// Encrypts a counter value for storage.
  Bytes encode_counter(const std::string& keyword, std::uint64_t count) const;

  /// Second round of an update: given the current count, produces the new
  /// dictionary entry (for count+1).
  MitraUpdateToken update(MitraOp op, const std::string& keyword, const DocId& id,
                          std::uint64_t current_count) const;

  /// Second round of a search: all addresses for counts 1..count.
  MitraSearchToken search_token(const std::string& keyword, std::uint64_t count) const;

  /// Shared with Mitra: decrypt + fold add/delete entries.
  std::vector<DocId> resolve(const std::string& keyword,
                             const std::vector<Bytes>& values) const;

 private:
  crypto::PrfKey key_;  // hoisted HMAC schedule
  crypto::AesGcm counter_cipher_;  // hoisted key schedule and GHASH subkey
};

}  // namespace datablinder::sse
