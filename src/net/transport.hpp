// Transport — the gateway<->cloud seam.
//
// A transport delivers one serialized Request and returns the response
// payload. Three implementations compose as decorators:
//
//   Endpoint      one RpcServer behind one Channel — the only place bytes
//                 cross a channel;
//   ReplicaGroup  N Endpoints: primary-backup replication, failure accrual
//                 and hedged reads (net/replica_group.hpp);
//   ShardRouter   N Transports behind a consistent-hash ring
//                 (net/shard_router.hpp).
//
// RpcClient sits on exactly one Transport and adds serialization, the
// retry loop and deferred batching; it never asks which shape is below it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/bytes.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"
#include "net/resilience.hpp"

namespace datablinder::net {

class RpcServer;

class Transport {
 public:
  using MetricsHook = std::function<void(const char* series, std::uint64_t value)>;
  using Hedgeable = std::function<bool(const std::string& method)>;

  Transport() = default;
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Delivers one serialized request and returns the decoded response
  /// payload. Server-side errors re-throw typed; transport failures throw
  /// Error(kUnavailable).
  virtual Bytes call(const std::string& method, const Bytes& wire_request) = 0;

  /// Counter events of this transport and the ones it wraps. Pass nullptr
  /// to clear.
  virtual void set_metrics_hook(MetricsHook /*hook*/) {}

  /// Gate for speculative re-sends (hedges, failover after the request leg
  /// shipped): only methods it accepts may reach a second replica. nullptr
  /// (the default) accepts nothing. RpcClient installs it from its retry
  /// whitelist.
  virtual void set_hedgeable(Hedgeable /*pred*/) {}

  /// The circuit breaker guarding this transport, or nullptr when the
  /// transport tracks health itself (per-replica failure accrual).
  virtual CircuitBreaker* breaker() noexcept { return nullptr; }
};

/// One cloud node behind one channel.
class Endpoint final : public Transport {
 public:
  /// Both must outlive the endpoint.
  Endpoint(RpcServer& server, Channel& channel) : server_(server), channel_(channel) {}

  Bytes call(const std::string& method, const Bytes& wire_request) override;

  /// The channel's breaker (inert until configured).
  CircuitBreaker* breaker() noexcept override { return &channel_.breaker(); }

  // The two legs of call(), for a caller that must act between them (the
  // replication log records an applied write before its ack crosses back).

  /// Request leg, then server dispatch. Throws Error(kUnavailable) when the
  /// request leg faults, in which case the server never saw the request;
  /// once it returns, the server has executed it.
  Response send(const std::string& method, const Bytes& wire_request);

  /// Response leg: carries `response` back and returns it as decoded on the
  /// gateway side. Throws Error(kUnavailable) when the leg faults: the
  /// server-side effect stands, the answer is lost.
  Response reply(const std::string& method, const Response& response);

  /// The payload of a delivered response; re-throws a failure typed.
  static Bytes payload_or_throw(Response response);

 private:
  RpcServer& server_;
  Channel& channel_;
};

}  // namespace datablinder::net
