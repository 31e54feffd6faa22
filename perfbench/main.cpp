// perfbench entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//       --trace 0: end-to-end metrics (tracing off).
//       --trace 1: per-layer metrics (an untraced and a traced phase, the
//                  layer ledger, kernel probes); spans go to <dir>.
//   perfbench --probe overhead --seed <n>
//       S_B vs S_C at one client, the process pinned to one CPU first.
//   perfbench --self-test
//       Plants a wrong answer after a short run; exits 0 iff the gate trips.
//   perfbench --list-metrics
//       The per-layer metric table (name unit better), one per line.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when any answer was wrong or any operation
// failed: no faults are injected, so every operation must succeed.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "bench.hpp"
#include "core/tactics/builtin.hpp"

using namespace perfbench;

namespace {

constexpr int kSetupReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string probe;
  bool self_test = false;
  bool list_metrics = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(value().c_str());
    else if (k == "--trace") a.trace = value() != "0";
    else if (k == "--out") a.out_dir = value();
    else if (k == "--probe") a.probe = value();
    else if (k == "--self-test") a.self_test = true;
    else if (k == "--list-metrics") a.list_metrics = true;
    else usage(("unknown argument " + k).c_str());
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- the per-layer table -------------------------------------------------

struct LayerMetric {
  std::string name;
  std::string unit;
  const char* better;
};

struct TacticOp {
  const char* tactic;  // descriptor name, as the PerfRegistry keys it
  core::TacticOperation op;
  const char* op_key;
};

const std::vector<TacticOp>& tactic_ops() {
  using TO = core::TacticOperation;
  static const std::vector<TacticOp> all = {
      {"DET", TO::kInsert, "insert"},         {"DET", TO::kDelete, "delete"},
      {"DET", TO::kEqualitySearch, "eq"},     {"Mitra", TO::kInsert, "insert"},
      {"Mitra", TO::kDelete, "delete"},       {"Mitra", TO::kEqualitySearch, "eq"},
      {"Paillier", TO::kInsert, "insert"},    {"Paillier", TO::kDelete, "delete"},
      {"Paillier", TO::kAverage, "avg"},      {"BIEX-2Lev", TO::kInsert, "insert"},
      {"BIEX-2Lev", TO::kDelete, "delete"},   {"BIEX-2Lev", TO::kBooleanSearch, "bool"},
      {"OPE", TO::kInsert, "insert"},         {"OPE", TO::kDelete, "delete"},
      {"OPE", TO::kRangeQuery, "range"}};
  return all;
}

std::string lower(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::string tactic_key(const TacticOp& t) {
  return "tactic." + lower(t.tactic) + "." + t.op_key;
}

const char* kStages[] = {"store",  "index",   "unindex", "retrieve", "delete",
                         "gather", "resolve", "merge",   "verify",   "aggregate"};
const char* kCloudTimed[] = {"doc.put",    "doc.mget",   "doc.del",      "det.insert",
                             "det.remove", "det.search", "mitra.update", "mitra.search",
                             "agg.insert", "agg.remove", "agg.sum"};

const std::vector<LayerMetric>& layer_table() {
  static const std::vector<LayerMetric> table = [] {
    std::vector<LayerMetric> t;
    t.push_back({"gateway.self_us_per_op", "us", "lower"});
    t.push_back({"gateway.overhead_vs_hardcoded_pct", "%", "lower"});
    for (const char* s : kStages) {
      t.push_back({std::string("exec.") + s + ".us_per_op", "us", "lower"});
    }
    t.push_back({"exec.fanout_ratio", "ratio", "higher"});
    for (const auto& to : tactic_ops()) {
      t.push_back({tactic_key(to) + ".us_per_call", "us", "lower"});
      t.push_back({tactic_key(to) + ".calls_per_op", "count", "lower"});
    }
    t.push_back({"crypto.gcm_open_ns_per_byte", "ns/B", "lower"});
    t.push_back({"crypto.gcm_seal_ns_per_byte", "ns/B", "lower"});
    t.push_back({"crypto.siv_label_us", "us", "lower"});
    t.push_back({"crypto.prf_us", "us", "lower"});
    t.push_back({"crypto.docs_opened_per_query", "count", "lower"});
    t.push_back({"crypto.bytes_opened_per_query", "B", "lower"});
    t.push_back({"phe.encrypt_us", "us", "lower"});
    t.push_back({"phe.decrypt_us", "us", "lower"});
    t.push_back({"bigint.mulmod_n2_us", "us", "lower"});
    t.push_back({"phe.ciphertexts_folded_per_aggregate", "count", "lower"});
    t.push_back({"sse.index_ops_per_op", "count", "lower"});
    t.push_back({"sse.results_per_query", "count", "lower"});
    t.push_back({"cloud.dispatch_us_per_op", "us", "lower"});
    for (const char* m : kCloudTimed) {
      t.push_back({std::string("cloud.") + m + ".us_per_call", "us", "lower"});
    }
    for (Op op : kAllOps) {
      t.push_back({std::string("net.round_trips_per_") + op_name(op), "count", "lower"});
      t.push_back({std::string("net.bytes_per_") + op_name(op), "B", "lower"});
    }
    t.push_back({"net.shard.subcalls_per_op", "count", "lower"});
    t.push_back({"net.shard.imbalance", "ratio", "lower"});
    t.push_back({"net.replica.log_bytes_per_doc", "B", "lower"});
    t.push_back({"net.replica.log_entries", "count", "lower"});
    t.push_back({"store.cloud_bytes_per_doc_per_node", "B", "lower"});
    t.push_back({"trace.overhead_pct", "%", "lower"});
    return t;
  }();
  return table;
}

// --- layer snapshots -----------------------------------------------------

struct LayerSnapshot {
  std::map<std::pair<std::string, core::TacticOperation>, OpStats> series;
  std::map<std::string, std::uint64_t> counters;
  ChannelTotals channels;
  std::uint64_t index_ops = 0;
};

LayerSnapshot snapshot(Stack& stack) {
  LayerSnapshot s;
  s.series = stack.gateway().perf().snapshot();
  s.counters = stack.gateway().perf().counters();
  s.channels = channel_totals(stack);
  s.index_ops = stack.cloud().index_ops();
  return s;
}

struct SeriesDelta {
  double count = 0;
  double total_ns = 0;
};

SeriesDelta delta(const LayerSnapshot& a, const LayerSnapshot& b, const std::string& name,
                  core::TacticOperation op) {
  SeriesDelta d;
  const auto key = std::make_pair(name, op);
  auto ib = b.series.find(key);
  if (ib == b.series.end()) return d;
  auto ia = a.series.find(key);
  d.count = static_cast<double>(ib->second.count) -
            (ia == a.series.end() ? 0.0 : static_cast<double>(ia->second.count));
  d.total_ns = static_cast<double>(ib->second.total_ns) -
               (ia == a.series.end() ? 0.0 : static_cast<double>(ia->second.total_ns));
  return d;
}

double counter_delta(const LayerSnapshot& a, const LayerSnapshot& b, const std::string& name) {
  auto get = [&](const LayerSnapshot& s) {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  return get(b) - get(a);
}

/// Stage time summed over every operation type, in ns.
double stage_ns(const LayerSnapshot& a, const LayerSnapshot& b, const std::string& stage) {
  double ns = 0;
  for (const auto& [key, stats] : b.series) {
    if (key.first == "core." + stage) ns += delta(a, b, key.first, key.second).total_ns;
  }
  return ns;
}

// --- stack lifecycle -------------------------------------------------------

struct Run {
  std::unique_ptr<Stack> stack;
  Shadow shadow;
  std::vector<Client> clients;
};

std::unique_ptr<Run> set_up(const WorkloadSpec& spec, const core::TacticRegistry& registry,
                            const Args& args, Gate& gate, Tracer* tracer) {
  auto run = std::make_unique<Run>();
  run->stack = std::make_unique<Stack>(spec, registry, tracer);
  for (std::size_t i = 0; i < kClients; ++i) run->clients.emplace_back(i, args.seed, spec);
  preload(spec, *run->stack, run->shadow, gate, run->clients, args.seed);
  return run;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- output ----------------------------------------------------------------

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                name.c_str(), v, vu.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_latency_detail(const char* what, const workload::LatencySummary& s) {
  std::fprintf(stderr, "%-10s n=%llu p50=%.1fus p99=%.1fus max=%.1fus\n", what,
               static_cast<unsigned long long>(s.count), s.p50_us, s.p99_us, s.max_us);
}

// --- modes -----------------------------------------------------------------

int run_end_to_end(const WorkloadSpec& spec, const Args& args) {
  Gate gate;
  if (!planted_answers_trip_gate()) gate.fail("planted wrong answers did not trip the gate");
  core::TacticRegistry registry;
  core::register_builtin_tactics(registry);

  std::vector<double> setup_s;
  std::unique_ptr<Run> run;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    run.reset();
    malloc_trim(0);  // hand the last set-up's memory back before the next
    const std::uint64_t t0 = now_ns();
    run = set_up(spec, registry, args, gate, nullptr);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  Stack& stack = *run->stack;
  // Storage per document of the preloaded corpus. Measured before the
  // timed phase: at its end the figure would also hold the history a run
  // leaves behind, which grows with the number of operations a run gets
  // done, so a faster program would read as a larger one.
  const double storage_per_doc =
      ratio(static_cast<double>(stack.cloud().storage_bytes()),
            static_cast<double>(run->shadow.size()));

  const ChannelTotals before = channel_totals(stack);
  const PhaseResult phase = run_closed_loop(spec, stack, run->shadow, gate, run->clients,
                                            args.seconds, nullptr);
  const ChannelTotals after = channel_totals(stack);
  const auto shadow = run->shadow.snapshot();
  final_check(spec, stack, shadow, gate);

  const double ops = static_cast<double>(phase.app_ops());
  const auto w = phase.latency(OpClass::kWrite);
  const auto q = phase.latency(OpClass::kQuery);
  const auto g = phase.latency(OpClass::kAggregate);
  print_latency_detail("write", w);
  print_latency_detail("query", q);
  print_latency_detail("aggregate", g);
  print_latency_detail("delete", phase.latency(OpClass::kRetire));
  std::fprintf(stderr, "timed phase: %.0f ops in %.3fs; corpus %zu docs; setup %s\n", ops,
               phase.elapsed_s, shadow.size(), [&] {
                 std::string s;
                 for (double v : setup_s) s += std::to_string(v) + "s ";
                 return s;
               }().c_str());

  Metrics m;
  m.push_back({"throughput_ops_s", {ratio(ops, phase.elapsed_s), "ops/s"}});
  m.push_back({"write_p50_us", {w.p50_us, "us"}});
  m.push_back({"write_p99_us", {w.p99_us, "us"}});
  m.push_back({"query_p50_us", {q.p50_us, "us"}});
  m.push_back({"query_p99_us", {q.p99_us, "us"}});
  m.push_back({"aggregate_p50_us", {g.p50_us, "us"}});
  m.push_back({"aggregate_p99_us", {g.p99_us, "us"}});
  m.push_back({"success_rate",
               {1.0 - ratio(static_cast<double>(phase.failed()),
                            static_cast<double>(phase.attempted())),
                "fraction"}});
  m.push_back({"setup_s", {median(setup_s), "s"}});
  m.push_back({"wire_bytes_per_op",
               {ratio(static_cast<double>(after.bytes - before.bytes), ops), "B"}});
  m.push_back({"round_trips_per_op",
               {ratio(static_cast<double>(after.round_trips - before.round_trips), ops),
                "count"}});
  m.push_back({"storage_bytes_per_doc", {storage_per_doc, "B"}});
  m.push_back({"peak_rss_mb", {peak_rss_mb(), "MiB"}});

  run.reset();
  gate.print_failures();
  // Sample counts behind each latency percentile, and the measurement
  // kind: every number is CPU time (no simulated channel delay).
  std::printf(
      "{\"detail\": {\"workload\": \"%s\", \"tags\": [\"cpu\"], \"samples\": "
      "{\"write\": %llu, \"query\": %llu, \"aggregate\": %llu}, \"timed_ops\": %.0f, "
      "\"timed_s\": %.6f, \"corpus_docs\": %zu}}\n",
      spec.name.c_str(), static_cast<unsigned long long>(w.count),
      static_cast<unsigned long long>(q.count), static_cast<unsigned long long>(g.count), ops,
      phase.elapsed_s, shadow.size());
  const bool correct = gate.ok() && phase.failed() == 0;
  print_result(correct, phase.attempted(), phase.failed(), m);
  return correct ? 0 : 1;
}

int run_traced(const WorkloadSpec& spec, const Args& args) {
  Gate gate;
  if (!planted_answers_trip_gate()) gate.fail("planted wrong answers did not trip the gate");
  core::TacticRegistry registry;
  core::register_builtin_tactics(registry);
  std::map<std::string, double> v;
  std::uint64_t attempted = 0, failed = 0;

  // Reference: the same clients and mix with tracing off.
  double untraced_tput = 0;
  {
    auto run = set_up(spec, registry, args, gate, nullptr);
    const PhaseResult p = run_closed_loop(spec, *run->stack, run->shadow, gate,
                                          run->clients, args.seconds, nullptr);
    untraced_tput = ratio(static_cast<double>(p.app_ops()), p.elapsed_s);
    attempted += p.attempted();
    failed += p.failed();
  }

  Tracer tracer;
  auto run = set_up(spec, registry, args, gate, &tracer);
  Stack& stack = *run->stack;
  const std::uint64_t phase_start = now_ns();
  const LayerSnapshot a = snapshot(stack);
  const PhaseResult p = run_closed_loop(spec, stack, run->shadow, gate, run->clients,
                                        args.seconds, &tracer);
  const LayerSnapshot b = snapshot(stack);
  const std::uint64_t phase_end = now_ns();
  attempted += p.attempted();
  failed += p.failed();

  const double ops = static_cast<double>(p.app_ops());
  const double traced_tput = ratio(ops, p.elapsed_s);
  v["trace.overhead_pct"] = 100.0 * ratio(untraced_tput - traced_tput, untraced_tput);

  // gateway / exec
  double gateway_ns = 0, cloud_ns = 0;
  std::map<std::string, std::pair<double, double>> cloud_calls;  // method -> (n, ns)
  for (const Span& s : tracer.collect()) {
    if (s.start_ns < phase_start || s.end_ns > phase_end) continue;
    const auto ns = static_cast<double>(s.end_ns - s.start_ns);
    if (s.cloud) {
      cloud_ns += ns;
      cloud_calls[s.name].first += 1;
      cloud_calls[s.name].second += ns;
    } else {
      gateway_ns += ns;
    }
  }
  double all_stages_ns = 0;
  for (const char* s : kStages) {
    const double ns = stage_ns(a, b, s);
    all_stages_ns += ns;
    v[std::string("exec.") + s + ".us_per_op"] = ratio(ns / 1e3, ops);
  }
  v["gateway.self_us_per_op"] = ratio((gateway_ns - all_stages_ns) / 1e3, ops);
  double tactic_ns = 0;
  for (const auto& [key, stats] : b.series) {
    if (key.first.rfind("core.", 0) != 0 && key.first.rfind("plan.", 0) != 0) {
      tactic_ns += delta(a, b, key.first, key.second).total_ns;
    }
  }
  v["exec.fanout_ratio"] =
      ratio(tactic_ns, stage_ns(a, b, "index") + stage_ns(a, b, "unindex") +
                           stage_ns(a, b, "aggregate"));

  // tactics
  std::set<std::pair<std::string, core::TacticOperation>> listed;
  for (const auto& to : tactic_ops()) {
    const SeriesDelta d = delta(a, b, to.tactic, to.op);
    v[tactic_key(to) + ".us_per_call"] = ratio(d.total_ns / 1e3, d.count);
    v[tactic_key(to) + ".calls_per_op"] = ratio(d.count, ops);
    listed.insert({to.tactic, to.op});
  }
  for (const auto& [key, stats] : b.series) {
    if (key.first.rfind("core.", 0) == 0 || listed.count(key)) continue;
    if (delta(a, b, key.first, key.second).count > 0) {
      std::fprintf(stderr, "ledger: series %s/%s is not in the per-layer table\n",
                   key.first.c_str(), core::to_string(key.second).c_str());
    }
  }

  // crypto / phe / sse, from what the clients saw
  const auto& t = p.tally;
  auto tally = [&](Op op) -> const OpTally& { return t[static_cast<int>(op)]; };
  double query_ops = 0, query_docs = 0, search_ops = 0, search_docs = 0;
  for (Op op : {Op::kRead, Op::kEq, Op::kBool, Op::kRange}) {
    query_ops += static_cast<double>(tally(op).app_ops);
    query_docs += static_cast<double>(tally(op).docs_returned);
    if (op != Op::kRead) {
      search_ops += static_cast<double>(tally(op).app_ops);
      search_docs += static_cast<double>(tally(op).docs_returned);
    }
  }
  v["crypto.docs_opened_per_query"] = ratio(query_docs, query_ops);
  v["phe.ciphertexts_folded_per_aggregate"] =
      ratio(static_cast<double>(tally(Op::kAvg).agg_folded),
            static_cast<double>(tally(Op::kAvg).app_ops));
  v["sse.index_ops_per_op"] = ratio(static_cast<double>(b.index_ops - a.index_ops), ops);
  v["sse.results_per_query"] = ratio(search_docs, search_ops);

  // cloud (forwarding server spans; single-node shape only)
  v["cloud.dispatch_us_per_op"] = ratio(cloud_ns / 1e3, ops);
  for (const char* m : kCloudTimed) {
    const auto& [n, ns] = cloud_calls[m];
    v[std::string("cloud.") + m + ".us_per_call"] = ratio(ns / 1e3, n);
  }

  // net
  v["net.shard.subcalls_per_op"] = ratio(counter_delta(a, b, "core.shard.subcalls"),
                                         counter_delta(a, b, "core.shard.scatter"));
  {
    double max_rt = 0, sum_rt = 0;
    for (std::size_t s = 0; s < b.channels.shard_round_trips.size(); ++s) {
      const auto rt = static_cast<double>(b.channels.shard_round_trips[s] -
                                          a.channels.shard_round_trips[s]);
      max_rt = std::max(max_rt, rt);
      sum_rt += rt;
    }
    v["net.shard.imbalance"] =
        ratio(max_rt, sum_rt / static_cast<double>(b.channels.shard_round_trips.size()));
  }

  // Per-op-type wire cost: one client, after the timed phase, so channel
  // deltas can be attributed to one operation type.
  for (Op op : kAllOps) {
    if (!spec.issues(op)) continue;
    constexpr int n = 16;
    const ChannelTotals c0 = channel_totals(stack);
    for (int k = 0; k < n; ++k) {
      run_op(spec, stack, run->shadow, gate, run->clients[0], op, nullptr);
    }
    const ChannelTotals c1 = channel_totals(stack);
    const OpTally& ct = run->clients[0].tally[static_cast<int>(op)];
    attempted += ct.attempted;
    failed += ct.failed;
    v[std::string("net.round_trips_per_") + op_name(op)] =
        static_cast<double>(c1.round_trips - c0.round_trips) / n;
    v[std::string("net.bytes_per_") + op_name(op)] =
        static_cast<double>(c1.bytes - c0.bytes) / n;
  }
  for (auto& c : run->clients) c.tally = {};

  // replicas and stores
  const auto docs = static_cast<double>(run->shadow.size());
  double log_bytes = 0, log_entries = 0;
  for (std::size_t s = 0; s < stack.cloud().shard_count(); ++s) {
    if (net::ReplicaGroup* g = stack.cloud().group(s)) {
      log_bytes += static_cast<double>(g->log_wire_bytes(g->committed_seq()));
      log_entries += static_cast<double>(g->log_entries());
    }
  }
  v["net.replica.log_bytes_per_doc"] = ratio(log_bytes, docs);
  v["net.replica.log_entries"] = log_entries;
  const double nodes = static_cast<double>(stack.cloud().shard_count() *
                                           stack.cloud().replicas_per_shard());
  v["store.cloud_bytes_per_doc_per_node"] =
      ratio(static_cast<double>(stack.cloud().storage_bytes()), docs * nodes);

  final_check(spec, stack, run->shadow.snapshot(), gate);
  const std::string spans_path =
      args.out_dir + "/spans-" + spec.name + "-" + std::to_string(args.seed) + ".csv";
  if (!tracer.write_csv(spans_path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", spans_path.c_str());
  }
  run.reset();

  // Kernel unit costs, measured once the stack is gone.
  Metrics kernels;
  kernel_probes(spec, args.seed, kernels);
  for (const auto& [name, vu] : kernels) v[name] = vu.first;
  v["crypto.bytes_opened_per_query"] = ratio(
      query_docs * static_cast<double>(sealed_doc_bytes(spec, args.seed)), query_ops);

  Metrics m;
  for (const auto& lm : layer_table()) {
    if (lm.name == "gateway.overhead_vs_hardcoded_pct") continue;  // separate process
    m.push_back({lm.name, {v.count(lm.name) ? v[lm.name] : 0.0, lm.unit}});
  }
  gate.print_failures();
  const bool correct = gate.ok() && failed == 0;
  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

int run_overhead_probe(const Args& args) {
  // Pin before any thread starts, so S_B and S_C get the same single CPU.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      if (sched_setaffinity(0, sizeof(one), &one) != 0) std::perror("sched_setaffinity");
      break;
    }
  }
  Gate gate;
  const double pct = overhead_probe(args.seed, gate);
  gate.print_failures();
  print_result(gate.ok(), 6, 0, {{"gateway.overhead_vs_hardcoded_pct", {pct, "%"}}});
  return gate.ok() ? 0 : 1;
}

int run_self_test() {
  // A short fig5_mix run, then a planted wrong answer: the shadow's copy
  // of one document disagrees with what the system stored. The end-of-run
  // check must notice.
  const WorkloadSpec& spec = *find_workload("fig5_mix");
  Args args;
  Gate gate;
  core::TacticRegistry registry;
  core::register_builtin_tactics(registry);
  auto run = set_up(spec, registry, args, gate, nullptr);
  run_closed_loop(spec, *run->stack, run->shadow, gate, run->clients, 0.5, nullptr);
  final_check(spec, *run->stack, run->shadow.snapshot(), gate);
  if (!gate.ok() || !planted_answers_trip_gate()) {
    gate.print_failures();
    std::fprintf(stderr, "self-test: the gate failed before anything was planted\n");
    return 1;
  }
  auto planted = run->shadow.snapshot();
  doc::Document& victim = planted.begin()->second;
  victim.set("value", doc::Value(victim.at("value").as_double() + 0.5));
  Gate planted_gate;
  final_check(spec, *run->stack, planted, planted_gate);
  if (planted_gate.ok()) {
    std::fprintf(stderr, "self-test: a planted wrong answer passed the gate\n");
    return 1;
  }
  planted_gate.print_failures();
  std::printf("self-test: the planted wrong answer tripped the gate (%zu mismatches)\n",
              planted_gate.failures());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.list_metrics) {
    for (const auto& m : layer_table()) {
      std::printf("%s %s %s\n", m.name.c_str(), m.unit.c_str(), m.better);
    }
    return 0;
  }
  if (!args.probe.empty() && args.probe != "overhead") usage("unknown probe");
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr && !args.self_test && args.probe.empty()) {
    std::string names;
    for (const auto& n : workload_names()) names += " " + n;
    usage(("unknown workload '" + args.workload + "'; known:" + names).c_str());
  }
  try {
    if (args.self_test) return run_self_test();
    if (!args.probe.empty()) return run_overhead_probe(args);
    return args.trace ? run_traced(*spec, args) : run_end_to_end(*spec, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
