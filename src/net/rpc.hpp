// Request/response RPC over a Transport.
//
// The server registers byte-in/byte-out handlers per method name; handler
// exceptions are converted into typed error responses so a DataBlinder
// error thrown cloud-side surfaces gateway-side with its original code —
// the serialization path is exercised end-to-end even though both ends run
// in one process.
//
// The client serializes each call and hands the bytes to one Transport
// (net/transport.hpp): a bare Endpoint, a ReplicaGroup or a ShardRouter.
//
// Resilience: with a RetryPolicy installed, transport failures
// (kUnavailable) on whitelisted methods are retried with exponential
// backoff + jitter under a per-call deadline budget, re-sending the SAME
// serialized request bytes (byte-identical replay — see resilience.hpp for
// why that preserves both exactly-once state and the leakage profile). The
// transport's circuit breaker, when it has one and it is enabled, sheds
// calls while the endpoint is down and probes it half-open after a
// cooldown.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/channel.hpp"
#include "net/message.hpp"
#include "net/resilience.hpp"
#include "net/transport.hpp"

namespace datablinder::net {

class RpcServer {
 public:
  using Handler = std::function<Bytes(BytesView)>;

  /// Registers a handler; throws Error(kAlreadyExists) on duplicates.
  void register_method(const std::string& method, Handler handler);

  /// Dispatches a serialized request to its handler. Never throws: errors
  /// become failure responses.
  Response dispatch(const Request& request) const noexcept;

  std::size_t method_count() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Handler> handlers_;
};

class RpcClient {
 public:
  /// Every call goes through `transport`, which must outlive the client.
  /// A kUnavailable escaping it is retried under the installed policy; a
  /// replica group dedups the replayed bytes of a write whose ack was lost,
  /// and a shard router re-derives byte-identical sub-requests (placement
  /// is deterministic) that each shard's group dedups.
  explicit RpcClient(Transport& transport) : transport_(transport) {}

  /// A client over its own Endpoint(server, channel); both must outlive it.
  RpcClient(RpcServer& server, Channel& channel)
      : owned_(std::make_unique<Endpoint>(server, channel)), transport_(*owned_) {}

  /// Full round trip: serialize, hand the bytes to the transport, return
  /// the response payload. Throws the server-side Error on failure
  /// responses. Transport failures are retried per the installed
  /// RetryPolicy.
  Bytes call(const std::string& method, BytesView payload);

  // --- resilience -----------------------------------------------------------

  void set_retry_policy(RetryPolicy policy);
  RetryPolicy retry_policy() const;

  /// Overrides the clock used for backoff sleeps and breaker cooldowns
  /// (non-owning; nullptr restores the system steady clock). Test hook.
  void set_clock(RetryClock* clock);

  /// Observer for retry/breaker events. Series names: "net.retry.attempt",
  /// "net.retry.backoff_us", "net.retry.giveup", "net.retry.deadline",
  /// "net.breaker.open", "net.breaker.reject", plus the transport's own
  /// series. The gateway bridges these into its PerfRegistry. Pass nullptr
  /// to clear.
  using MetricsHook = Transport::MetricsHook;
  void set_metrics_hook(MetricsHook hook);

  // --- deferred batching ----------------------------------------------------
  //
  // Between begin_deferred() and flush_deferred(), calls *on this thread*
  // whose method is in the deferrable set are queued instead of sent and
  // return an empty payload immediately (only fire-and-forget update
  // methods qualify — their responses are empty by protocol). flush sends
  // the whole queue as ONE "rpc.batch" round trip; any sub-call failure
  // surfaces as the corresponding Error at flush time. Thread-local, so
  // concurrent callers on other threads are unaffected.
  //
  // Failure contract: flush_deferred()/take_deferred() END the section
  // before any network activity, so every failure path leaves no queued
  // requests behind and a fresh section can immediately be re-begun.

  /// Starts a deferred section. Throws kInvalidArgument if one is active.
  void begin_deferred(std::set<std::string> deferrable_methods);

  /// Sends all queued calls as one batch round trip; returns how many were
  /// sent. Always ends the deferred section, even on error.
  std::size_t flush_deferred();

  /// Ends the deferred section WITHOUT sending and hands the queued
  /// requests to the caller — the capture half of crash-consistent
  /// inserts: the gateway journals the exact bytes, then ships them with
  /// send_batch().
  std::vector<Request> take_deferred();

  /// Ships previously captured requests as ONE "rpc.batch" round trip;
  /// returns how many were sent. Safe to replay: the batch carries only
  /// keyed-overwrite updates, so re-sending the identical bytes converges
  /// to the same cloud state.
  std::size_t send_batch(const std::vector<Request>& queue);

  /// Discards a deferred section without sending (error-path cleanup).
  void abandon_deferred() noexcept;

  bool in_deferred_section() const noexcept;

  /// The server-side batch dispatcher; CloudNode (or any server) registers
  /// it as method "rpc.batch".
  static RpcServer::Handler make_batch_handler(const RpcServer& server);

  /// The transport every call goes through (the gateway configures its
  /// breaker; the planner asks whether it is a ShardRouter).
  Transport& transport() noexcept { return transport_; }

 private:
  struct Deferred {
    std::set<std::string> methods;
    std::vector<Request> queue;
  };
  /// Per-(thread, client) deferred sections, keyed by client so independent
  /// gateway stacks in one process never cross-contaminate.
  static thread_local std::unordered_map<const RpcClient*, Deferred> t_deferred_;
  Deferred* deferred_slot() const noexcept;

  void emit(const char* series, std::uint64_t value) const;

  std::unique_ptr<Endpoint> owned_;  // set by the (server, channel) constructor
  Transport& transport_;

  mutable std::mutex policy_mutex_;  // guards policy_, clock_, hook_
  RetryPolicy policy_;
  RetryClock* clock_ = nullptr;
  MetricsHook hook_;
};

}  // namespace datablinder::net
