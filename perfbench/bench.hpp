// perfbench — the repository benchmark.
//
// One process drives the public core::Gateway API over in-process clouds
// (core::ShardedCloud) with closed-loop client threads. Every
// net::ChannelConfig delay field stays zero, so every number is CPU time.
// Two seeded workloads stress different layers (see workloads.cpp);
// a plaintext shadow model checks every answer (gate.cpp); a separate
// traced run times calls into each layer from the benchmark's own code
// and reads the counters the program already exposes (main.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/gateway.hpp"
#include "core/sharding.hpp"
#include "doc/value.hpp"
#include "fhir/observation.hpp"
#include "net/rpc.hpp"
#include "workload/stats.hpp"

namespace perfbench {

using namespace datablinder;
using sse::DocId;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: derives independent, reproducible stream seeds from the
/// workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

// --- operations ---------------------------------------------------------

enum class Op : int { kInsert, kUpdate, kDelete, kRead, kEq, kBool, kRange, kAvg };
inline constexpr int kOpCount = 8;
inline constexpr std::array<Op, kOpCount> kAllOps = {
    Op::kInsert, Op::kUpdate, Op::kDelete, Op::kRead,
    Op::kEq,     Op::kBool,   Op::kRange,  Op::kAvg};

const char* op_name(Op op);

/// Deletes only retire the oldest document after each insert, to keep
/// the corpus size steady; they have no latency metric of their own.
enum class OpClass { kWrite, kQuery, kAggregate, kRetire };
OpClass op_class(Op op);

// --- workloads ----------------------------------------------------------

/// Closed-loop client threads of every workload (the host's core count).
inline constexpr std::size_t kClients = 4;

struct WorkloadSpec {
  std::string name;
  bool observation_schema = false;  // false: fhir::benchmark_schema (§5.2)
  std::size_t shards = 1;
  std::size_t replicas = 1;
  std::size_t preload = 0;          // corpus documents loaded during set-up
  bool wide_values = false;         // 1024 subjects x 64 codes (selective)
  /// Weights of the mixed operations. Every insert is followed by the
  /// delete of the same client's oldest document (Op::kDelete), so the
  /// corpus keeps its preloaded size through the run.
  std::array<double, kOpCount> weights{};
  /// fig5_mix rotates equality search over status/code/subject; the
  /// selective workload searches subject only.
  std::vector<std::string> eq_fields;

  double weight(Op op) const { return weights[static_cast<int>(op)]; }
  bool issues(Op op) const {
    return weight(op) > 0 || (op == Op::kDelete && weight(Op::kInsert) > 0);
  }
};

const WorkloadSpec* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// Seeded observation documents. With wide_values the subject and code
/// pools are widened so equality and boolean searches return a few
/// documents instead of a fixed share of the corpus.
class DocSource {
 public:
  DocSource(std::uint64_t seed, bool wide_values)
      : gen_(seed), ids_(mix_seed(seed, 0x1d)), wide_(wide_values) {}

  doc::Document next();                 // fresh document with a fresh id
  doc::Document next_version(const DocId& id);  // fresh values, same id
  doc::Value eq_value(const std::string& field);
  std::pair<doc::Value, doc::Value> narrow_range();

 private:
  doc::Document values();

  fhir::ObservationGenerator gen_;
  DetRng ids_;
  bool wide_;
};

// --- tracing ------------------------------------------------------------

struct Span {
  std::int64_t id;
  std::int64_t parent;  // -1: no parent visible from the benchmark
  std::uint32_t thread;
  bool cloud;           // cloud dispatch (else a gateway call)
  const char* name;     // static storage (op or cloud-method name)
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

/// In-memory span recorder: per-thread buffers, written out at the end.
/// A cloud-dispatch span is linked to the gateway span open on the same
/// thread; cloud calls made on executor worker threads stay unlinked.
class Tracer {
 public:
  std::int64_t begin_gateway();                 // returns the span id
  void end_gateway(std::int64_t id, const char* name, std::uint64_t start_ns);
  void cloud(const char* method, std::uint64_t start_ns, std::uint64_t end_ns);

  std::vector<Span> collect() const;
  bool write_csv(const std::string& path) const;

 private:
  std::vector<Span>& buffer();

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
  std::atomic<std::int64_t> next_id_{0};
};

// --- the stack under test ------------------------------------------------

/// Cloud + gateway for one workload. With a tracer on the single-node
/// shape, the gateway talks to a forwarding RpcServer that times every
/// CloudNode dispatch before handing it on; the channel is the same one.
class Stack {
 public:
  Stack(const WorkloadSpec& spec, const core::TacticRegistry& registry, Tracer* tracer);
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  core::Gateway& gateway() { return *gateway_; }
  core::ShardedCloud& cloud() { return cloud_; }
  const std::string& collection() const { return collection_; }

 private:
  std::string collection_ = "observations";
  core::ShardedCloud cloud_;
  std::unique_ptr<net::RpcServer> forward_;
  std::unique_ptr<net::RpcClient> forward_client_;
  kms::KeyManager kms_;
  store::KvStore local_;
  std::unique_ptr<core::Gateway> gateway_;  // last: destroyed first
};

// --- shadow model and gate ---------------------------------------------

/// Plaintext shadow of every document the benchmark wrote, latest version.
class Shadow {
 public:
  void put(const doc::Document& d);
  void erase(const DocId& id);
  std::optional<doc::Document> get(const DocId& id) const;
  std::unordered_map<DocId, doc::Document> snapshot() const;
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<DocId, doc::Document> docs_;
};

/// Sticky mismatch log; any entry fails the run.
class Gate {
 public:
  void fail(const std::string& what);
  bool ok() const;
  std::size_t failures() const;
  void print_failures() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> failures_;
  std::size_t count_ = 0;
};

bool term_holds(const doc::Document& d, const std::string& field, const doc::Value& v);
bool in_range(const doc::Document& d, const std::string& field, const doc::Value& lo,
              const doc::Value& hi);
/// The average Paillier computes: fixed-point sum / count.
double shadow_average(const std::unordered_map<DocId, doc::Document>& docs);
bool averages_agree(double got, double want);

/// End-of-run check against the shadow: per-value counts and document
/// contents (status and code equality), the average and its count, and
/// replica state digests. Mismatches go to `gate`.
void final_check(const WorkloadSpec& spec, Stack& stack,
                 const std::unordered_map<DocId, doc::Document>& shadow, Gate& gate);

/// Feeds each comparator a planted wrong answer; returns false if any
/// of them fails to notice.
bool planted_answers_trip_gate();

// --- closed-loop load ----------------------------------------------------

struct OpTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t app_ops = 0;       // completed operations
  std::uint64_t docs_returned = 0; // query results (documents opened)
  std::uint64_t agg_folded = 0;    // aggregate result counts
  workload::LatencyRecorder latency;
};

struct Client {
  Client(std::size_t index, std::uint64_t seed, const WorkloadSpec& spec)
      : index(index), src(mix_seed(seed, 100 + index), spec.wide_values),
        pick(mix_seed(seed, 200 + index)) {}

  std::size_t index;
  DocSource src;
  DetRng pick;
  std::deque<DocId> owned;  // oldest first
  std::array<OpTally, kOpCount> tally;
};

struct PhaseResult {
  double elapsed_s = 0;
  std::array<OpTally, kOpCount> tally;

  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  std::uint64_t app_ops() const;
  workload::LatencySummary latency(OpClass c) const;
};

/// Runs one operation for `client`, checks its answer, updates the shadow
/// and the client's tally. Failures (exceptions) are counted, not thrown.
void run_op(const WorkloadSpec& spec, Stack& stack, Shadow& shadow, Gate& gate,
            Client& client, Op op, Tracer* tracer);

/// Closed loop: every client thread issues its next operation only after
/// the previous one returned, until `seconds` have passed.
PhaseResult run_closed_loop(const WorkloadSpec& spec, Stack& stack, Shadow& shadow,
                            Gate& gate, std::vector<Client>& clients, double seconds,
                            Tracer* tracer);

/// Loads the corpus in set-up, one thread per client, ownership recorded
/// per client.
void preload(const WorkloadSpec& spec, Stack& stack, Shadow& shadow, Gate& gate,
             std::vector<Client>& clients, std::uint64_t seed);

// --- per-layer ledger ----------------------------------------------------

struct ChannelTotals {
  std::uint64_t bytes = 0;
  std::uint64_t round_trips = 0;
  std::vector<std::uint64_t> shard_round_trips;
};
ChannelTotals channel_totals(Stack& stack);

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// Median size of the workload's documents sealed as the gateway stores
/// them (binary codec + AES-GCM).
std::size_t sealed_doc_bytes(const WorkloadSpec& spec, std::uint64_t seed);

/// Unit costs of the kernels under the workload (AES-GCM at the median
/// sealed-document size, SIV, PRF, 512-bit Paillier and mul-mod n^2).
void kernel_probes(const WorkloadSpec& spec, std::uint64_t seed, Metrics& out);

/// S_B (hard-coded tactics) vs S_C (DataBlinder) on the fig5 mix at one
/// client; the caller pins the process to one CPU first. Returns
/// (S_B - S_C) / S_B in percent.
double overhead_probe(std::uint64_t seed, Gate& gate);

}  // namespace perfbench
