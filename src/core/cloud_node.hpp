// CloudNode — the untrusted-zone half of DataBlinder (§4, Fig. 3/4).
//
// Hosts the encrypted document store (MongoDB role), the cloud-side secure
// indexes (Redis role) and the cloud implementations of every tactic SPI,
// exposed as RPC methods the gateway calls across the simulated WAN. The
// node never holds key material: it sees only ciphertexts, PRF labels,
// trapdoors/tokens, and Paillier ciphertexts (tests assert this).
//
// A parallel set of "plain.*" methods serves the S_A baseline scenario —
// the same store and channel without any protection, isolating the cost of
// the tactics themselves in the Figure 5 comparison.
#pragma once

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/montgomery.hpp"
#include "net/rpc.hpp"
#include "sse/iex2lev.hpp"
#include "sse/iexzmf.hpp"
#include "sse/mitra.hpp"
#include "sse/mitra_stateless.hpp"
#include "sse/sophos.hpp"
#include "store/docstore.hpp"
#include "store/kvstore.hpp"

namespace datablinder::core {

class CloudNode {
 public:
  CloudNode();

  /// The RPC surface the gateway binds to.
  net::RpcServer& rpc() noexcept { return rpc_; }

  /// Storage metric across all cloud-side structures.
  std::size_t storage_bytes() const;

  /// Number of secure-index operations served (Fig. 5 reports ~350k per
  /// experiment run).
  std::uint64_t index_ops() const noexcept { return index_ops_.load(); }
  void reset_counters() { index_ops_ = 0; }

  /// Order-insensitive digest of all replicated state: document store,
  /// KV substrate, every SSE server structure, and Paillier aggregate
  /// columns. Two nodes fed byte-identical write traffic digest equal —
  /// the replica convergence check. Per-node counters (index_ops), which
  /// legitimately differ under read routing, are excluded. Also exposed as
  /// the "admin.digest" RPC method.
  std::uint64_t state_digest() const;

 private:
  // Handler groups — one per cloud-side tactic module (the "cloud
  // implementations" column of Table 1).
  void register_doc_handlers();
  void register_det_handlers();
  void register_ope_handlers();
  void register_ore_handlers();
  void register_mitra_handlers();
  void register_mitra_stateless_handlers();
  void register_sophos_handlers();
  void register_iex_handlers();
  void register_zmf_handlers();
  void register_agg_handlers();
  void register_plain_handlers();
  void register_admin_handlers();

  /// One scope's SSE server behind a reader/writer lock: handlers update
  /// through write() (exclusive) and search through read() (shared), so
  /// concurrent searches of one scope stay parallel while writes serialize.
  template <typename Server>
  struct SseScope {
    template <typename... Args>
    explicit SseScope(Args&&... args) : server(std::forward<Args>(args)...) {}

    template <typename Fn>
    auto write(Fn&& fn) {
      std::unique_lock lock(mutex);
      return fn(server);
    }
    template <typename Fn>
    auto read(Fn&& fn) {
      std::shared_lock lock(mutex);
      return fn(std::as_const(server));
    }

    std::shared_mutex mutex;
    Server server;  // unlocked access only from the quiescent digest/size walks
  };

  /// Finds or creates a scope under sse_mutex_. Scopes are never erased,
  /// so the reference stays valid after that lock is released.
  SseScope<sse::MitraServer>& mitra(const std::string& scope);
  /// Sophos scopes are created by sophos.setup only; throws kNotFound.
  SseScope<sse::SophosServer>& sophos(const std::string& scope);
  SseScope<sse::MitraStatelessServer>& mitra_sl(const std::string& scope);
  SseScope<sse::Iex2LevServer>& iex(const std::string& scope);
  SseScope<sse::IexZmfServer>& zmf(const std::string& scope,
                                   const sse::ZmfFilterParams* params);

  net::RpcServer rpc_;
  store::DocumentStore docs_;
  store::KvStore kv_;

  std::mutex sse_mutex_;  // guards the scope maps, not the servers in them
  std::unordered_map<std::string, std::unique_ptr<SseScope<sse::MitraServer>>> mitra_;
  std::unordered_map<std::string, std::unique_ptr<SseScope<sse::MitraStatelessServer>>>
      mitra_sl_;
  std::unordered_map<std::string, std::unique_ptr<SseScope<sse::SophosServer>>> sophos_;
  std::unordered_map<std::string, std::unique_ptr<SseScope<sse::Iex2LevServer>>> iex_;
  std::unordered_map<std::string, std::unique_ptr<SseScope<sse::IexZmfServer>>> zmf_;

  struct AggColumn {
    bigint::BigInt n;          // Paillier public modulus
    bigint::BigInt n_squared;
    std::shared_ptr<const bigint::Montgomery> mont_n2;  // fold-loop context
    // doc id -> ciphertext mod n^2; shared so agg.sum can fold a snapshot
    // without holding agg_mutex_.
    std::unordered_map<std::string, std::shared_ptr<const bigint::BigInt>> cts;
  };
  std::unordered_map<std::string, AggColumn> agg_;
  std::mutex agg_mutex_;

  std::atomic<std::uint64_t> index_ops_{0};
};

}  // namespace datablinder::core
