// Traced-run probes: kernel unit costs at the workload's own sizes, and the
// S_B vs S_C middleware-overhead comparison.
#include <map>
#include <vector>

#include "bench.hpp"
#include "bigint/montgomery.hpp"
#include "core/tactics/builtin.hpp"
#include "crypto/gcm.hpp"
#include "crypto/prf.hpp"
#include "crypto/siv.hpp"
#include "doc/binary_codec.hpp"
#include "phe/paillier.hpp"
#include "workload/scenarios.hpp"

namespace perfbench {

namespace {

/// Median over 5 batches of the per-call time of `fn`, in ns; each batch
/// runs for at least 20 ms.
template <class F>
double ns_per_call(F&& fn) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    std::uint64_t calls = 0;
    const std::uint64_t start = now_ns();
    std::uint64_t elapsed = 0;
    do {
      fn();
      ++calls;
      elapsed = now_ns() - start;
    } while (elapsed < 20'000'000);
    batches.push_back(static_cast<double>(elapsed) / static_cast<double>(calls));
  }
  return median(batches);
}

constexpr std::size_t kGcmOverhead = 12 + 16;  // nonce + tag

}  // namespace

std::size_t sealed_doc_bytes(const WorkloadSpec& spec, std::uint64_t seed) {
  DocSource src(mix_seed(seed, 500), spec.wide_values);
  std::vector<double> sizes;
  for (int i = 0; i < 101; ++i) {
    sizes.push_back(static_cast<double>(doc::encode_document(src.next()).size()));
  }
  return static_cast<std::size_t>(median(sizes)) + kGcmOverhead;
}

void kernel_probes(const WorkloadSpec& spec, std::uint64_t seed, Metrics& out) {
  DetRng rng(mix_seed(seed, 501));
  const Bytes plaintext = rng.bytes(sealed_doc_bytes(spec, seed) - kGcmOverhead);
  const Bytes aad = rng.bytes(24);

  const crypto::AesGcm gcm(rng.bytes(32));
  const Bytes sealed = gcm.seal_random_nonce(plaintext, aad);
  const double seal_ns = ns_per_call([&] { (void)gcm.seal_random_nonce(plaintext, aad); });
  const double open_ns = ns_per_call([&] {
    if (!gcm.open_with_nonce(sealed, aad)) throw Error(ErrorCode::kCryptoFailure, "probe");
  });
  const auto bytes = static_cast<double>(sealed.size());
  out.push_back({"crypto.gcm_seal_ns_per_byte", {seal_ns / bytes, "ns/B"}});
  out.push_back({"crypto.gcm_open_ns_per_byte", {open_ns / bytes, "ns/B"}});

  // DET labels: AES-SIV over a short encoded field value.
  const crypto::AesSiv siv(rng.bytes(32));
  const Bytes value = rng.bytes(16);
  const Bytes context = rng.bytes(24);
  out.push_back({"crypto.siv_label_us",
                 {ns_per_call([&] { (void)siv.seal(value, context); }) / 1e3, "us"}});

  const crypto::PrfKey prf(rng.bytes(32));
  const Bytes input = rng.bytes(32);
  out.push_back({"crypto.prf_us", {ns_per_call([&] { (void)prf.prf(input); }) / 1e3, "us"}});

  // The benchmark's Paillier modulus: 512 bits, no randomizer pool.
  phe::PaillierKeyPair keys = phe::paillier_generate(512);
  keys.pub.init_fast_paths();
  keys.priv.init_fast_paths();
  const bigint::BigInt ct = keys.pub.encrypt_i64(1234);
  const bigint::BigInt other = keys.pub.encrypt_i64(5678);
  out.push_back({"phe.encrypt_us",
                 {ns_per_call([&] { (void)keys.pub.encrypt_i64(1234); }) / 1e3, "us"}});
  out.push_back({"phe.decrypt_us",
                 {ns_per_call([&] { (void)keys.priv.decrypt(ct); }) / 1e3, "us"}});
  out.push_back({"bigint.mulmod_n2_us",
                 {ns_per_call([&] { (void)ct.mul_mod(other, *keys.pub.mont_n2); }) / 1e3,
                  "us"}});
}

namespace {

/// One S_B or S_C run at one client: preload, then a fixed seeded 1:1:1
/// sequence of insert / equality search / average whose answers are
/// checked against a plaintext tally. Returns operations per second.
double scenario_throughput(workload::ScenarioApi& api, std::uint64_t seed, Gate& gate) {
  constexpr std::size_t kPreload = 300;
  constexpr std::size_t kOps = 600;
  constexpr auto kScale = static_cast<double>(core::PaillierTactic::kFixedPointScale);
  const char* fields[] = {"status", "code", "subject"};

  std::map<std::string, std::size_t> counts;  // "field=value" -> documents
  std::int64_t fixed_sum = 0;
  std::size_t docs = 0;
  auto insert = [&](doc::Document d) {
    for (const char* f : fields) ++counts[std::string(f) + "=" + d.at(f).to_display()];
    fixed_sum += std::llround(d.at("value").as_double() * kScale);
    ++docs;
    api.insert_document(std::move(d));
  };

  fhir::ObservationGenerator gen(mix_seed(seed, 600));
  for (std::size_t i = 0; i < kPreload; ++i) insert(gen.next());

  DetRng ops(mix_seed(seed, 601));
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0; i < kOps; ++i) {
    switch (ops.uniform(3)) {
      case 0:
        insert(gen.next());
        break;
      case 1: {
        const std::string field = fields[ops.uniform(3)];
        const doc::Value value = field == "status" ? gen.random_status()
                                 : field == "code" ? gen.random_code()
                                                   : gen.random_subject();
        const std::size_t got = api.equality_search(field, value);
        const std::size_t want = counts[field + "=" + value.to_display()];
        if (got != want) {
          gate.fail(api.name() + ": " + field + " search returned " + std::to_string(got) +
                    ", expected " + std::to_string(want));
        }
        break;
      }
      default: {
        const double avg = api.aggregate_average("value");
        const double want = static_cast<double>(fixed_sum) / kScale / static_cast<double>(docs);
        if (!averages_agree(avg, want)) gate.fail(api.name() + ": average mismatch");
        break;
      }
    }
  }
  return static_cast<double>(kOps) / (static_cast<double>(now_ns() - start) / 1e9);
}

}  // namespace

double overhead_probe(std::uint64_t seed, Gate& gate) {
  core::TacticRegistry registry;
  core::register_builtin_tactics(registry);
  std::vector<double> s_b, s_c;
  for (int rep = 0; rep < 3; ++rep) {
    // Alternate which side runs first.
    for (int side = 0; side < 2; ++side) {
      workload::ScenarioHarness h;
      if ((side + rep) % 2 == 0) {
        workload::ScenarioB api(h);
        s_b.push_back(scenario_throughput(api, seed + rep, gate));
      } else {
        workload::ScenarioC api(h, registry);
        s_c.push_back(scenario_throughput(api, seed + rep, gate));
      }
    }
  }
  const double b = median(s_b);
  const double c = median(s_c);
  return b > 0 ? 100.0 * (b - c) / b : 0.0;
}

}  // namespace perfbench
