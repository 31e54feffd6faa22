// Benchmark-owned closed-loop load: per-op-type latency recorders, every
// failed operation caught and counted, every answer checked.
#include <cstdio>
#include <functional>
#include <limits>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {

// A failed operation misses every latency limit.
constexpr std::uint64_t kFailedLatency = std::numeric_limits<std::uint64_t>::max();

/// Times `call` as one gateway operation. Returns false (and counts the
/// failure) if it threw.
template <class F>
bool timed(OpTally& t, Op op, Tracer* tracer, F&& call) {
  ++t.attempted;
  const std::int64_t span = tracer != nullptr ? tracer->begin_gateway() : -1;
  const std::uint64_t start = now_ns();
  try {
    call();
  } catch (const std::exception& e) {
    if (tracer != nullptr) tracer->end_gateway(span, op_name(op), start);
    t.latency.record_ns(kFailedLatency);
    if (++t.failed <= 3) std::fprintf(stderr, "op %s failed: %s\n", op_name(op), e.what());
    return false;
  }
  const std::uint64_t end = now_ns();
  if (tracer != nullptr) tracer->end_gateway(span, op_name(op), start);
  t.latency.record_ns(end - start);
  return true;
}

const DocId& pick_owned(Client& c) { return c.owned[c.pick.uniform(c.owned.size())]; }

void run_threads(std::size_t n, const std::function<void(std::size_t)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) threads.emplace_back(body, i);
  for (auto& t : threads) t.join();
}

PhaseResult merge_tallies(std::vector<Client>& clients, double elapsed_s) {
  PhaseResult r;
  r.elapsed_s = elapsed_s;
  for (auto& c : clients) {
    for (int i = 0; i < kOpCount; ++i) {
      OpTally& from = c.tally[i];
      OpTally& to = r.tally[i];
      to.attempted += from.attempted;
      to.failed += from.failed;
      to.app_ops += from.app_ops;
      to.docs_returned += from.docs_returned;
      to.agg_folded += from.agg_folded;
      to.latency.merge(from.latency);
      from = OpTally{};
    }
  }
  return r;
}

}  // namespace

std::uint64_t PhaseResult::attempted() const {
  std::uint64_t n = 0;
  for (const auto& t : tally) n += t.attempted;
  return n;
}

std::uint64_t PhaseResult::failed() const {
  std::uint64_t n = 0;
  for (const auto& t : tally) n += t.failed;
  return n;
}

std::uint64_t PhaseResult::app_ops() const {
  std::uint64_t n = 0;
  for (const auto& t : tally) n += t.app_ops;
  return n;
}

workload::LatencySummary PhaseResult::latency(OpClass c) const {
  workload::LatencyRecorder all;
  for (Op op : kAllOps) {
    if (op_class(op) == c) all.merge(tally[static_cast<int>(op)].latency);
  }
  return all.summarize();
}

void run_op(const WorkloadSpec& spec, Stack& stack, Shadow& shadow, Gate& gate,
            Client& client, Op op, Tracer* tracer) {
  core::Gateway& gw = stack.gateway();
  const std::string& col = stack.collection();
  OpTally& t = client.tally[static_cast<int>(op)];

  switch (op) {
    case Op::kInsert: {
      doc::Document d = client.src.next();
      DocId id;
      if (!timed(t, op, tracer, [&] { id = gw.insert(col, d); })) return;
      if (id != d.id) gate.fail("insert returned id " + id + ", expected " + d.id);
      shadow.put(d);
      client.owned.push_back(d.id);
      t.app_ops += 1;
      return;
    }
    case Op::kUpdate: {
      // Clients update only documents they own, so the shadow's latest
      // version is exact for the owner.
      doc::Document d = client.src.next_version(pick_owned(client));
      if (!timed(t, op, tracer, [&] { gw.update(col, d); })) return;
      shadow.put(d);
      t.app_ops += 1;
      return;
    }
    case Op::kDelete: {
      // Retires the client's oldest document, so the corpus stays the
      // size it was preloaded to.
      if (client.owned.empty()) return;
      const DocId id = client.owned.front();
      if (!timed(t, op, tracer, [&] { gw.remove(col, id); })) return;
      client.owned.pop_front();
      shadow.erase(id);
      t.app_ops += 1;
      return;
    }
    case Op::kRead: {
      const DocId id = pick_owned(client);
      doc::Document got;
      if (!timed(t, op, tracer, [&] { got = gw.read(col, id); })) return;
      const auto want = shadow.get(id);
      if (!want || !(got == *want)) gate.fail("read " + id + " is not its latest version");
      t.app_ops += 1;
      t.docs_returned += 1;
      return;
    }
    case Op::kEq: {
      const std::string& field = spec.eq_fields[client.pick.uniform(spec.eq_fields.size())];
      const doc::Value value = client.src.eq_value(field);
      std::vector<doc::Document> docs;
      if (!timed(t, op, tracer, [&] { docs = gw.equality_search(col, field, value); })) {
        return;
      }
      for (const auto& d : docs) {
        if (!term_holds(d, field, value)) {
          gate.fail("eq " + field + "=" + value.to_display() + " returned " + d.id);
        }
      }
      t.app_ops += 1;
      t.docs_returned += docs.size();
      return;
    }
    case Op::kBool: {
      const doc::Value status = client.src.eq_value("status");
      const doc::Value code = client.src.eq_value("code");
      // The selective term first: BIEX-2Lev walks the first term's
      // posting list and intersects the rest through pair streams.
      core::FieldBoolQuery q;
      q.dnf.push_back({{"code", code}, {"status", status}});
      std::vector<doc::Document> docs;
      if (!timed(t, op, tracer, [&] { docs = gw.boolean_search(col, q); })) return;
      for (const auto& d : docs) {
        if (!term_holds(d, "status", status) || !term_holds(d, "code", code)) {
          gate.fail("bool status^code returned " + d.id);
        }
      }
      t.app_ops += 1;
      t.docs_returned += docs.size();
      return;
    }
    case Op::kRange: {
      const auto [lo, hi] = client.src.narrow_range();
      std::vector<doc::Document> docs;
      if (!timed(t, op, tracer, [&] { docs = gw.range_search(col, "effective", lo, hi); })) {
        return;
      }
      for (const auto& d : docs) {
        if (!in_range(d, "effective", lo, hi)) gate.fail("range returned " + d.id);
      }
      t.app_ops += 1;
      t.docs_returned += docs.size();
      return;
    }
    case Op::kAvg: {
      core::AggregateResult r;
      if (!timed(t, op, tracer, [&] {
            r = gw.aggregate(col, "value", schema::Aggregate::kAverage);
          })) {
        return;
      }
      // Concurrent writers move the exact answer; every value the
      // generator draws lies in [3.5, 12.0], so the average must too.
      if (r.count == 0 || r.value < 3.5 || r.value > 12.0) {
        gate.fail("average " + std::to_string(r.value) + " over " +
                  std::to_string(r.count) + " values is out of the value domain");
      }
      t.app_ops += 1;
      t.agg_folded += r.count;
      return;
    }
  }
}

PhaseResult run_closed_loop(const WorkloadSpec& spec, Stack& stack, Shadow& shadow,
                            Gate& gate, std::vector<Client>& clients, double seconds,
                            Tracer* tracer) {
  std::array<double, kOpCount> cumulative{};
  double total = 0;
  for (int i = 0; i < kOpCount; ++i) {
    total += spec.weights[i];
    cumulative[i] = total;
  }
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  run_threads(clients.size(), [&](std::size_t i) {
    Client& c = clients[i];
    while (now_ns() < deadline) {
      const double roll = c.pick.real() * total;
      int k = 0;
      while (k + 1 < kOpCount && roll >= cumulative[k]) ++k;
      const Op op = static_cast<Op>(k);
      run_op(spec, stack, shadow, gate, c, op, tracer);
      if (op == Op::kInsert) run_op(spec, stack, shadow, gate, c, Op::kDelete, tracer);
    }
  });
  return merge_tallies(clients, static_cast<double>(now_ns() - start) / 1e9);
}

void preload(const WorkloadSpec& spec, Stack& stack, Shadow& shadow, Gate& gate,
             std::vector<Client>& clients, std::uint64_t seed) {
  // On the plain single-node shape nothing serializes the cloud side of
  // concurrent insert_many calls: their deferred rpc.batch sub-calls reach
  // the same CloudNode SSE dictionary from several threads at once, outside
  // the gateway's per-tactic locks, and corrupt it. There the preload uses
  // single inserts, whose cloud calls run under those locks. Replica groups
  // serialize writes, so they take insert_many batches.
  const bool batched = spec.shards > 1 || spec.replicas > 1;
  constexpr std::size_t kBatch = 50;
  run_threads(clients.size(), [&](std::size_t i) {
    Client& c = clients[i];
    DocSource src(mix_seed(seed, 300 + i), spec.wide_values);
    const std::size_t mine = spec.preload / clients.size() +
                             (i < spec.preload % clients.size() ? 1 : 0);
    for (std::size_t done = 0; done < mine;) {
      std::vector<doc::Document> docs;
      for (; docs.size() < (batched ? kBatch : 1) && done < mine; ++done) {
        docs.push_back(src.next());
      }
      try {
        if (batched) {
          if (stack.gateway().insert_many(stack.collection(), docs).size() != docs.size()) {
            gate.fail("preload: short id list");
          }
        } else if (stack.gateway().insert(stack.collection(), docs[0]) != docs[0].id) {
          gate.fail("preload: insert returned another id");
        }
      } catch (const std::exception& e) {
        gate.fail(std::string("preload failed: ") + e.what());
        return;
      }
      for (const auto& d : docs) {
        shadow.put(d);
        c.owned.push_back(d.id);
      }
    }
  });
}

ChannelTotals channel_totals(Stack& stack) {
  ChannelTotals t;
  auto& cloud = stack.cloud();
  t.shard_round_trips.assign(cloud.shard_count(), 0);
  for (std::size_t s = 0; s < cloud.shard_count(); ++s) {
    for (std::size_t r = 0; r < cloud.replicas_per_shard(); ++r) {
      auto& st = cloud.channel(s, r).stats();
      t.bytes += st.bytes_sent.load() + st.bytes_received.load();
      t.round_trips += st.round_trips.load();
      t.shard_round_trips[s] += st.round_trips.load();
    }
  }
  return t;
}

}  // namespace perfbench
