// ShardedCloud — the untrusted zone as N shards × R replicas, and the one
// place the gateway<->cloud transport stack is composed:
//
//   RpcClient ─> ShardRouter ─> ReplicaGroup ─> Endpoint ─> Channel ─> CloudNode
//                (shards > 1)   (per shard)     (per replica)
//
// Each layer is a net::Transport, so the client binds to whichever is on
// top. Every CloudNode sits behind its own independently faultable
// Channel; hedged reads, failure accrual, byte-exact replication and
// catch-up apply per shard — one shard's primary failover never stalls its
// siblings. Hedges and scatter sub-calls share one CallPool.
//
// Shapes:
//   * shards = 1, replicas = 1, hedged_reads off — the client sits on the
//     bare Endpoint, so the wire traffic is byte-identical to a
//     hand-assembled RpcClient(node.rpc(), channel);
//   * shards = 1 otherwise — the client sits on the shard's ReplicaGroup;
//   * shards > 1 — every shard gets a ReplicaGroup (even at replicas = 1:
//     the router's contract is "each backend dedups byte-identical
//     replays", which the group's log provides) behind the ShardRouter.
#pragma once

#include <memory>
#include <vector>

#include "core/cloud_node.hpp"
#include "core/gateway.hpp"
#include "net/call_pool.hpp"
#include "net/channel.hpp"
#include "net/replica_group.hpp"
#include "net/rpc.hpp"
#include "net/shard_router.hpp"
#include "net/transport.hpp"

namespace datablinder::core {

class ShardedCloud {
 public:
  /// Builds config.shards shard groups (minimum 1) of config.replicas
  /// nodes each (minimum 1), every channel starting from `channel_config`.
  explicit ShardedCloud(const GatewayConfig& config = {},
                        net::ChannelConfig channel_config = {});

  /// The client the Gateway should be constructed over.
  net::RpcClient& client() noexcept { return *client_; }

  /// The shard router, or nullptr when shards = 1 (no routing layer).
  net::ShardRouter* router() noexcept { return router_.get(); }

  /// Replica group of shard s, or nullptr in the plain single-node shape.
  net::ReplicaGroup* group(std::size_t s) noexcept {
    return shards_[s].group.get();
  }

  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::size_t replicas_per_shard() const noexcept {
    return shards_[0].replicas.size();
  }

  CloudNode& node(std::size_t shard, std::size_t replica = 0) {
    return shards_[shard].replicas[replica]->node;
  }
  net::Channel& channel(std::size_t shard, std::size_t replica = 0) {
    return shards_[shard].replicas[replica]->channel;
  }

  /// Replays missing log suffixes on every shard's reachable replicas;
  /// returns replicas fully in sync, summed across shards.
  std::size_t catch_up();

  /// Cluster-wide counters summed across every node of every shard (the
  /// bench/observability view a single CloudNode used to provide).
  std::uint64_t index_ops() const;
  std::size_t storage_bytes() const;

 private:
  struct Replica {
    explicit Replica(const net::ChannelConfig& config) : channel(config) {}
    CloudNode node;
    net::Channel channel;
    net::Endpoint endpoint{node.rpc(), channel};
  };
  struct Shard {
    // unique_ptr: the endpoint refers to its node and channel.
    std::vector<std::unique_ptr<Replica>> replicas;
    std::unique_ptr<net::ReplicaGroup> group;
  };

  std::vector<Shard> shards_;
  std::unique_ptr<net::ShardRouter> router_;
  // Declared after every transport its jobs touch: destroying the pool
  // first lets an in-flight hedge loser finish before its channel goes.
  net::CallPool call_pool_;
  std::unique_ptr<net::RpcClient> client_;
};

}  // namespace datablinder::core
