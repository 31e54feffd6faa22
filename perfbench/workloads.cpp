// Workload definitions, the stack each one runs on, and span recording.
#include <cstdio>
#include <string>

#include "bench.hpp"
#include "common/hex.hpp"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kInsert: return "insert";
    case Op::kUpdate: return "update";
    case Op::kDelete: return "delete";
    case Op::kRead: return "read";
    case Op::kEq: return "eq";
    case Op::kBool: return "bool";
    case Op::kRange: return "range";
    case Op::kAvg: return "avg";
  }
  return "?";
}

OpClass op_class(Op op) {
  switch (op) {
    case Op::kInsert:
    case Op::kUpdate: return OpClass::kWrite;
    case Op::kDelete: return OpClass::kRetire;
    case Op::kAvg: return OpClass::kAggregate;
    default: return OpClass::kQuery;
  }
}

namespace {

std::array<double, kOpCount> weights(std::initializer_list<std::pair<Op, double>> w) {
  std::array<double, kOpCount> out{};
  for (const auto& [op, v] : w) out[static_cast<int>(op)] = v;
  return out;
}

// Why each workload exists is recorded in README.md.
std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> all;

  // The paper's §5.2 workload: 8 tactics, one node, a 1:1:1 mix. Status
  // and code searches return 1/4 and 1/8 of the corpus and every average
  // folds every Paillier ciphertext: bulk AEAD and bigint work dominate.
  WorkloadSpec fig5;
  fig5.name = "fig5_mix";
  fig5.preload = 2000;
  fig5.weights = weights({{Op::kInsert, 1}, {Op::kEq, 1}, {Op::kAvg, 1}});
  fig5.eq_fields = {"status", "code", "subject"};
  all.push_back(fig5);

  // Read-dominant, selective lookups on the §5.1 schema over 4 shards x 2
  // replicas: results are a few documents, so per-request fixed cost
  // (planning, wire codec, router scatter/merge, round trips) dominates.
  WorkloadSpec lookup;
  lookup.name = "sharded_lookup";
  lookup.observation_schema = true;
  lookup.shards = 4;
  lookup.replicas = 2;
  lookup.preload = 4000;
  lookup.wide_values = true;
  lookup.weights = weights({{Op::kRead, 55},
                            {Op::kEq, 12},
                            {Op::kBool, 10},
                            {Op::kRange, 10},
                            {Op::kUpdate, 6},
                            {Op::kInsert, 3},
                            {Op::kAvg, 4}});
  lookup.eq_fields = {"subject"};
  all.push_back(lookup);

  return all;
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = make_workloads();
  return all;
}

// Every CloudNode method; the forwarding server must know them all.
constexpr const char* kCloudMethods[] = {
    "doc.put",        "doc.get",        "doc.mget",      "doc.del",
    "doc.list",       "det.insert",     "det.remove",    "det.search",
    "ope.insert",     "ope.remove",     "ope.range",     "ope.extreme",
    "ore.insert",     "ore.remove",     "ore.range",     "mitra.update",
    "mitra.search",   "mitrasl.get_counter", "mitrasl.update", "mitrasl.search",
    "sophos.setup",   "sophos.update",  "sophos.search", "iex.update",
    "iex.search",     "zmf.setup",      "zmf.update",    "zmf.search",
    "agg.setup",      "agg.insert",     "agg.remove",    "agg.sum",
    "plain.put",      "plain.index",    "plain.get",     "plain.del",
    "plain.find_eq",  "plain.find_range", "plain.find_bool", "plain.avg",
    "admin.storage",  "admin.index_ops", "admin.digest"};

core::GatewayConfig gateway_config(const WorkloadSpec& spec) {
  core::GatewayConfig config;
  config.tactic_params = {{"paillier_modulus_bits", "512"}};
  config.shards = spec.shards;
  config.replicas = spec.replicas;
  return config;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const auto& w : workloads()) names.push_back(w.name);
  return names;
}

// --- DocSource -------------------------------------------------------------

doc::Document DocSource::values() {
  doc::Document d = gen_.next();
  if (wide_) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "patient-%04llu",
                  static_cast<unsigned long long>(gen_.rng().uniform(1024)));
    d.set("subject", doc::Value(buf));
    d.set("code", doc::Value(d.at("code").as_string() + "/" +
                             std::to_string(gen_.rng().uniform(8))));
  }
  return d;
}

doc::Document DocSource::next() {
  doc::Document d = values();
  d.id = hex_encode(ids_.bytes(12));
  return d;
}

doc::Document DocSource::next_version(const DocId& id) {
  doc::Document d = values();
  d.id = id;
  return d;
}

doc::Value DocSource::eq_value(const std::string& field) {
  if (field == "status") return gen_.random_status();
  if (field == "code") {
    if (!wide_) return gen_.random_code();
    return doc::Value(gen_.random_code().as_string() + "/" +
                      std::to_string(gen_.rng().uniform(8)));
  }
  if (!wide_) return gen_.random_subject();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "patient-%04llu",
                static_cast<unsigned long long>(gen_.rng().uniform(1024)));
  return doc::Value(buf);
}

std::pair<doc::Value, doc::Value> DocSource::narrow_range() {
  // The generator's effective domain: two years from 2013-01-01. A one-
  // to two-day window selects ~0.2% of the corpus.
  constexpr std::int64_t kBase = 1356998400;
  constexpr std::int64_t kSpan = 2 * 365 * 24 * 3600;
  const std::int64_t lo = kBase + gen_.rng().range(0, kSpan);
  const std::int64_t width = gen_.rng().range(24 * 3600, 2 * 24 * 3600);
  return {doc::Value(lo), doc::Value(lo + width)};
}

// --- Stack ---------------------------------------------------------------

Stack::Stack(const WorkloadSpec& spec, const core::TacticRegistry& registry, Tracer* tracer)
    : cloud_(gateway_config(spec)) {
  net::RpcClient* client = &cloud_.client();
  if (tracer != nullptr && spec.shards == 1 && spec.replicas == 1) {
    forward_ = std::make_unique<net::RpcServer>();
    net::RpcServer& node = cloud_.node(0, 0).rpc();
    for (const char* method : kCloudMethods) {
      forward_->register_method(method, [&node, method, tracer](BytesView payload) {
        const net::Request request{method, Bytes(payload.begin(), payload.end())};
        const std::uint64_t start = now_ns();
        net::Response response = node.dispatch(request);
        tracer->cloud(method, start, now_ns());
        if (!response.ok) throw Error(response.error, response.error_message);
        return std::move(response.payload);
      });
    }
    // Batched sub-calls dispatch through the forwarding server, so each
    // one is timed under its own method.
    forward_->register_method("rpc.batch", net::RpcClient::make_batch_handler(*forward_));
    forward_client_ = std::make_unique<net::RpcClient>(*forward_, cloud_.channel(0, 0));
    client = forward_client_.get();
  }
  gateway_ = std::make_unique<core::Gateway>(*client, kms_, local_, registry,
                                             gateway_config(spec));
  gateway_->register_schema(spec.observation_schema
                                ? fhir::observation_schema(collection_)
                                : fhir::benchmark_schema(collection_));
}

// --- Tracer --------------------------------------------------------------

namespace {
thread_local const Tracer* tl_owner = nullptr;
thread_local std::vector<Span>* tl_buffer = nullptr;
thread_local std::uint32_t tl_thread = 0;
thread_local std::int64_t tl_open_span = -1;
}  // namespace

std::vector<Span>& Tracer::buffer() {
  if (tl_owner != this) {
    std::lock_guard lock(mutex_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    buffers_.back()->reserve(1 << 14);
    tl_buffer = buffers_.back().get();
    tl_thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    tl_owner = this;
    tl_open_span = -1;
  }
  return *tl_buffer;
}

std::int64_t Tracer::begin_gateway() {
  buffer();
  tl_open_span = next_id_.fetch_add(1, std::memory_order_relaxed);
  return tl_open_span;
}

void Tracer::end_gateway(std::int64_t id, const char* name, std::uint64_t start_ns) {
  buffer().push_back({id, -1, tl_thread, false, name, start_ns, now_ns()});
  tl_open_span = -1;
}

void Tracer::cloud(const char* method, std::uint64_t start_ns, std::uint64_t end_ns) {
  std::vector<Span>& buf = buffer();
  buf.push_back({next_id_.fetch_add(1, std::memory_order_relaxed), tl_open_span,
                 tl_thread, true, method, start_ns, end_ns});
}

std::vector<Span> Tracer::collect() const {
  std::lock_guard lock(mutex_);
  std::vector<Span> all;
  for (const auto& b : buffers_) all.insert(all.end(), b->begin(), b->end());
  return all;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,thread,layer,name,start_ns,end_ns\n");
  for (const Span& s : collect()) {
    std::fprintf(f, "%lld,%lld,%u,%s,%s,%llu,%llu\n", static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), s.thread, s.cloud ? "cloud" : "gateway",
                 s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
