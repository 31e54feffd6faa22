// Correctness gate: a plaintext shadow model of every write, predicate
// checks on every answer, and an end-of-run comparison.
#include <cmath>
#include <cstdio>
#include <map>

#include "bench.hpp"
#include "core/tactics/paillier_tactic.hpp"
#include "store/docstore.hpp"

namespace perfbench {

void Shadow::put(const doc::Document& d) {
  std::lock_guard lock(mutex_);
  docs_[d.id] = d;
}

void Shadow::erase(const DocId& id) {
  std::lock_guard lock(mutex_);
  docs_.erase(id);
}

std::optional<doc::Document> Shadow::get(const DocId& id) const {
  std::lock_guard lock(mutex_);
  auto it = docs_.find(id);
  if (it == docs_.end()) return std::nullopt;
  return it->second;
}

std::unordered_map<DocId, doc::Document> Shadow::snapshot() const {
  std::lock_guard lock(mutex_);
  return docs_;
}

std::size_t Shadow::size() const {
  std::lock_guard lock(mutex_);
  return docs_.size();
}

void Gate::fail(const std::string& what) {
  std::lock_guard lock(mutex_);
  ++count_;
  if (failures_.size() < 20) failures_.push_back(what);
}

bool Gate::ok() const {
  std::lock_guard lock(mutex_);
  return count_ == 0;
}

std::size_t Gate::failures() const {
  std::lock_guard lock(mutex_);
  return count_;
}

void Gate::print_failures() const {
  std::lock_guard lock(mutex_);
  for (const auto& f : failures_) std::fprintf(stderr, "gate: %s\n", f.c_str());
  if (count_ > failures_.size()) {
    std::fprintf(stderr, "gate: ... %zu more\n", count_ - failures_.size());
  }
}

bool term_holds(const doc::Document& d, const std::string& field, const doc::Value& v) {
  return d.has(field) && store::compare_values(d.at(field), v) == 0;
}

bool in_range(const doc::Document& d, const std::string& field, const doc::Value& lo,
              const doc::Value& hi) {
  return d.has(field) && store::compare_values(d.at(field), lo) >= 0 &&
         store::compare_values(d.at(field), hi) <= 0;
}

double shadow_average(const std::unordered_map<DocId, doc::Document>& docs) {
  // Same fixed-point encoding the Paillier tactic applies per value.
  constexpr auto kScale = static_cast<double>(core::PaillierTactic::kFixedPointScale);
  std::int64_t sum = 0;
  for (const auto& [id, d] : docs) {
    sum += static_cast<std::int64_t>(std::llround(d.at("value").as_double() * kScale));
  }
  return docs.empty() ? 0.0
                      : static_cast<double>(sum) / kScale / static_cast<double>(docs.size());
}

bool averages_agree(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

namespace {

void check_field_counts(Stack& stack, const std::string& field,
                        const std::unordered_map<DocId, doc::Document>& shadow,
                        Gate& gate) {
  // Every distinct value present in the shadow; each document has exactly
  // one, so the searches together return the whole corpus.
  std::map<std::string, std::pair<doc::Value, std::size_t>> expect;
  for (const auto& [id, d] : shadow) {
    auto& slot = expect[d.at(field).to_display()];
    slot.first = d.at(field);
    ++slot.second;
  }
  for (const auto& [key, want] : expect) {
    const auto docs =
        stack.gateway().equality_search(stack.collection(), field, want.first);
    if (docs.size() != want.second) {
      gate.fail("final: " + field + "=" + key + " returned " +
                std::to_string(docs.size()) + " documents, shadow has " +
                std::to_string(want.second));
    }
    for (const auto& d : docs) {
      auto it = shadow.find(d.id);
      if (it == shadow.end()) {
        gate.fail("final: " + field + "=" + key + " returned unknown id " + d.id);
      } else if (!(it->second == d)) {
        gate.fail("final: document " + d.id + " differs from its latest version");
      }
    }
  }
}

}  // namespace

void final_check(const WorkloadSpec& spec, Stack& stack,
                 const std::unordered_map<DocId, doc::Document>& shadow, Gate& gate) {
  try {
    check_field_counts(stack, "status", shadow, gate);
    check_field_counts(stack, "code", shadow, gate);

    const auto avg = stack.gateway().aggregate(stack.collection(), "value",
                                               schema::Aggregate::kAverage);
    if (avg.count != shadow.size()) {
      gate.fail("final: average folded " + std::to_string(avg.count) +
                " values, shadow has " + std::to_string(shadow.size()));
    }
    const double want = shadow_average(shadow);
    if (!averages_agree(avg.value, want)) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "final: average %.9f, shadow %.9f", avg.value, want);
      gate.fail(buf);
    }
  } catch (const std::exception& e) {
    gate.fail(std::string("final check threw: ") + e.what());
  }

  auto& cloud = stack.cloud();
  for (std::size_t s = 0; s < cloud.shard_count() && spec.replicas > 1; ++s) {
    const std::uint64_t digest = cloud.node(s, 0).state_digest();
    for (std::size_t r = 1; r < cloud.replicas_per_shard(); ++r) {
      if (cloud.node(s, r).state_digest() != digest) {
        gate.fail("final: shard " + std::to_string(s) + " replica " + std::to_string(r) +
                  " state digest differs from replica 0");
      }
    }
  }
}

bool planted_answers_trip_gate() {
  DocSource src(7, false);
  const doc::Document d = src.next();
  bool tripped = true;

  // A search answer whose field does not match the predicate.
  const std::string status = d.at("status").as_string();
  tripped &= !term_holds(d, "status", doc::Value(status + "-planted"));
  tripped &= term_holds(d, "status", d.at("status"));

  // A range answer outside its window.
  const std::int64_t eff = d.at("effective").as_int();
  tripped &= !in_range(d, "effective", doc::Value(eff + 1), doc::Value(eff + 10));
  tripped &= in_range(d, "effective", doc::Value(eff), doc::Value(eff));

  // A read that returns a stale version.
  doc::Document stale = d;
  stale.set("value", doc::Value(d.at("value").as_double() + 0.1));
  tripped &= !(stale == d);

  // An average that is off by one fixed-point step of one document.
  std::unordered_map<DocId, doc::Document> one{{d.id, d}};
  tripped &= !averages_agree(shadow_average(one) + 0.01, shadow_average(one));
  tripped &= averages_agree(shadow_average(one), d.at("value").as_double());
  return tripped;
}

}  // namespace perfbench
