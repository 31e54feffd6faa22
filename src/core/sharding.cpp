#include "core/sharding.hpp"

#include <algorithm>

namespace datablinder::core {

ShardedCloud::ShardedCloud(const GatewayConfig& config,
                           net::ChannelConfig channel_config)
    : call_pool_(std::max<std::size_t>(32, 16 * config.shards)) {
  const std::size_t s = std::max<std::size_t>(1, config.shards);
  const std::size_t r = std::max<std::size_t>(1, config.replicas);

  net::HedgeConfig hedge = config.hedge;
  hedge.enabled = config.hedged_reads;

  shards_.resize(s);
  for (auto& shard : shards_) {
    shard.replicas.reserve(r);
    for (std::size_t i = 0; i < r; ++i) {
      shard.replicas.push_back(std::make_unique<Replica>(channel_config));
    }
  }

  if (s == 1 && r == 1 && !config.hedged_reads) {
    client_ = std::make_unique<net::RpcClient>(shards_[0].replicas[0]->endpoint);
    return;
  }

  std::vector<net::Transport*> groups;
  groups.reserve(s);
  for (auto& shard : shards_) {
    std::vector<net::Endpoint*> endpoints;
    endpoints.reserve(r);
    for (auto& replica : shard.replicas) endpoints.push_back(&replica->endpoint);
    shard.group = std::make_unique<net::ReplicaGroup>(std::move(endpoints), call_pool_,
                                                      hedge, config.accrual);
    groups.push_back(shard.group.get());
  }

  if (s == 1) {
    client_ = std::make_unique<net::RpcClient>(*shards_[0].group);
    return;
  }
  router_ = std::make_unique<net::ShardRouter>(std::move(groups), call_pool_);
  client_ = std::make_unique<net::RpcClient>(*router_);
}

std::size_t ShardedCloud::catch_up() {
  std::size_t in_sync = 0;
  for (auto& shard : shards_) {
    in_sync += shard.group ? shard.group->catch_up_all() : shard.replicas.size();
  }
  return in_sync;
}

std::uint64_t ShardedCloud::index_ops() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& replica : shard.replicas) total += replica->node.index_ops();
  }
  return total;
}

std::size_t ShardedCloud::storage_bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& replica : shard.replicas) total += replica->node.storage_bytes();
  }
  return total;
}

}  // namespace datablinder::core
