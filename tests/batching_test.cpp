// Deferred RPC batching tests: wire-level semantics, error propagation,
// thread isolation, and end-to-end insert_many correctness (including the
// Mitra-SL exclusion rule).
#include <gtest/gtest.h>

#include <thread>

#include "common/status.hpp"
#include "core/cloud_node.hpp"
#include "core/gateway.hpp"
#include "core/tactics/builtin.hpp"
#include "core/tactics/mitra_stateless_tactic.hpp"
#include "fhir/observation.hpp"
#include "net/rpc.hpp"

namespace datablinder {
namespace {

using core::DocId;
using doc::Document;
using doc::Value;

TEST(RpcBatchingTest, DeferredCallsTravelAsOneRoundTrip) {
  net::RpcServer server;
  int hits = 0;
  server.register_method("upd", [&hits](BytesView) {
    ++hits;
    return Bytes{8, 0, 0, 0, 0};  // empty object
  });
  server.register_method("rpc.batch", net::RpcClient::make_batch_handler(server));

  net::Channel channel;
  net::RpcClient client(server, channel);

  client.begin_deferred({"upd"});
  EXPECT_TRUE(client.in_deferred_section());
  for (int i = 0; i < 10; ++i) client.call("upd", Bytes{1});
  EXPECT_EQ(hits, 0);  // nothing sent yet
  EXPECT_EQ(channel.stats().round_trips.load(), 0u);
  EXPECT_EQ(client.flush_deferred(), 10u);
  EXPECT_FALSE(client.in_deferred_section());
  EXPECT_EQ(hits, 10);
  EXPECT_EQ(channel.stats().round_trips.load(), 1u);
}

TEST(RpcBatchingTest, NonDeferrableMethodsPassThrough) {
  net::RpcServer server;
  server.register_method("read", [](BytesView) { return Bytes{42}; });
  server.register_method("rpc.batch", net::RpcClient::make_batch_handler(server));
  net::Channel channel;
  net::RpcClient client(server, channel);

  client.begin_deferred({"upd"});
  EXPECT_EQ(client.call("read", {}), Bytes{42});  // immediate, not queued
  EXPECT_EQ(channel.stats().round_trips.load(), 1u);
  EXPECT_EQ(client.flush_deferred(), 0u);
}

TEST(RpcBatchingTest, SubCallErrorSurfacesAtFlush) {
  net::RpcServer server;
  int calls = 0;
  server.register_method("upd", [&calls](BytesView p) -> Bytes {
    ++calls;
    if (!p.empty() && p[0] == 0xff) {
      throw_error(ErrorCode::kSchemaViolation, "poison update");
    }
    return Bytes{8, 0, 0, 0, 0};
  });
  server.register_method("rpc.batch", net::RpcClient::make_batch_handler(server));
  net::Channel channel;
  net::RpcClient client(server, channel);

  client.begin_deferred({"upd"});
  client.call("upd", Bytes{1});
  client.call("upd", Bytes{0xff});
  client.call("upd", Bytes{2});
  try {
    client.flush_deferred();
    FAIL() << "expected schema violation";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSchemaViolation);
  }
  EXPECT_EQ(calls, 3);  // batch executes fully; the error is reported
  EXPECT_FALSE(client.in_deferred_section());
}

TEST(RpcBatchingTest, SectionsAreThreadLocal) {
  net::RpcServer server;
  std::atomic<int> hits{0};
  server.register_method("upd", [&hits](BytesView) {
    ++hits;
    return Bytes{8, 0, 0, 0, 0};
  });
  server.register_method("rpc.batch", net::RpcClient::make_batch_handler(server));
  net::Channel channel;
  net::RpcClient client(server, channel);

  client.begin_deferred({"upd"});
  client.call("upd", {});
  // Another thread's call must NOT be captured by this thread's section.
  std::thread other([&] {
    EXPECT_FALSE(client.in_deferred_section());
    client.call("upd", {});
  });
  other.join();
  EXPECT_EQ(hits.load(), 1);  // the other thread's call went through live
  EXPECT_EQ(client.flush_deferred(), 1u);
  EXPECT_EQ(hits.load(), 2);
}

TEST(RpcBatchingTest, WorkerThreadSectionIsReleasedAtThreadExit) {
  // A section opened and abandoned on a short-lived thread leaves nothing
  // behind once the thread exits (LeakSanitizer checks the per-thread map).
  net::RpcServer server;
  server.register_method("rpc.batch", net::RpcClient::make_batch_handler(server));
  net::Channel channel;
  net::RpcClient client(server, channel);

  std::thread worker([&client] {
    client.begin_deferred({"upd"});
    EXPECT_TRUE(client.in_deferred_section());
    client.abandon_deferred();
    EXPECT_FALSE(client.in_deferred_section());
  });
  worker.join();
  EXPECT_FALSE(client.in_deferred_section());
}

TEST(RpcBatchingTest, NestedAndDanglingSectionsRejected) {
  net::RpcServer server;
  server.register_method("rpc.batch", net::RpcClient::make_batch_handler(server));
  net::Channel channel;
  net::RpcClient client(server, channel);

  EXPECT_THROW(client.flush_deferred(), Error);  // no section
  client.begin_deferred({});
  EXPECT_THROW(client.begin_deferred({}), Error);  // nested
  client.abandon_deferred();
  EXPECT_FALSE(client.in_deferred_section());
}

// --- end-to-end ------------------------------------------------------------

struct Rig {
  Rig() : rpc(cloud.rpc(), channel) {}
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc;
  kms::KeyManager kms;
  store::KvStore local;
};

TEST(InsertManyTest, BatchedCorpusIsFullySearchable) {
  Rig rig;
  core::TacticRegistry registry;
  core::register_builtin_tactics(registry);
  core::Gateway gw(rig.rpc, rig.kms, rig.local, registry,
                   core::GatewayConfig{{{"paillier_modulus_bits", "256"}}});
  gw.register_schema(fhir::benchmark_schema("obs"));

  fhir::ObservationGenerator gen(21);
  std::vector<Document> corpus;
  for (int i = 0; i < 30; ++i) {
    Document d = gen.next();
    d.set("subject", Value(i % 2 ? "even-ward" : "odd-ward"));
    corpus.push_back(std::move(d));
  }

  const std::uint64_t before = rig.channel.stats().round_trips.load();
  const auto ids = gw.insert_many("obs", std::move(corpus));
  const std::uint64_t used = rig.channel.stats().round_trips.load() - before;
  EXPECT_EQ(ids.size(), 30u);
  EXPECT_EQ(used, 1u);  // everything deferrable in one round trip

  // Every index works exactly as with per-document inserts.
  EXPECT_EQ(gw.equality_search("obs", "subject", Value("even-ward")).size(), 15u);
  EXPECT_EQ(gw.equality_search("obs", "subject", Value("odd-ward")).size(), 15u);
  EXPECT_EQ(gw.read("obs", ids[0]).has("value"), true);
  EXPECT_EQ(gw.aggregate("obs", "value", schema::Aggregate::kAverage).count, 30u);
}

TEST(InsertManyTest, ValidationFailureShipsNothing) {
  Rig rig;
  core::TacticRegistry registry;
  core::register_builtin_tactics(registry);
  core::Gateway gw(rig.rpc, rig.kms, rig.local, registry,
                   core::GatewayConfig{{{"paillier_modulus_bits", "256"}}});
  gw.register_schema(fhir::benchmark_schema("obs"));

  fhir::ObservationGenerator gen(22);
  std::vector<Document> corpus = {gen.next(), gen.next()};
  corpus[1].set("bogus_field", Value(1));  // schema violation

  const std::uint64_t before = rig.channel.stats().round_trips.load();
  EXPECT_THROW(gw.insert_many("obs", std::move(corpus)), Error);
  // Validation happens before any network activity: atomically nothing
  // reached the cloud.
  EXPECT_EQ(rig.channel.stats().round_trips.load(), before);
  // The client's deferred section was cleaned up on the error path.
  EXPECT_FALSE(rig.rpc.in_deferred_section());
}

TEST(InsertManyTest, MitraSlKeepsPerUpdateRoundTrips) {
  // The counter-read dependency of Mitra-SL must bypass deferral — same-
  // keyword updates in one batch still land on distinct counter slots.
  Rig rig;
  core::TacticRegistry registry;
  core::register_det_tactic(registry);
  core::register_rnd_tactic(registry);
  core::register_mitra_tactic(registry);
  {
    core::TacticDescriptor d = core::MitraStatelessTactic::static_descriptor();
    d.preference = 100;
    registry.register_field_tactic(std::move(d), [](const core::GatewayContext& ctx) {
      return std::make_unique<core::MitraStatelessTactic>(ctx);
    });
  }
  core::register_sophos_tactic(registry);
  core::register_biex2lev_tactic(registry);
  core::register_biexzmf_tactic(registry);
  core::register_ope_tactic(registry);
  core::register_ore_tactic(registry);
  core::register_paillier_tactic(registry);

  schema::Schema s("people");
  schema::FieldAnnotation f;
  f.type = schema::FieldType::kString;
  f.sensitive = true;
  f.protection = schema::ProtectionClass::kClass2;
  f.operations = {schema::Operation::kInsert, schema::Operation::kEquality};
  s.field("name", f);

  core::Gateway gw(rig.rpc, rig.kms, rig.local, registry, {});
  gw.register_schema(s);
  ASSERT_EQ(gw.plan("people").fields.at("name").eq_tactic, "Mitra-SL");

  std::vector<Document> corpus;
  for (int i = 0; i < 8; ++i) {
    Document d;
    d.set("name", Value("same-keyword"));  // all hit one counter chain
    corpus.push_back(std::move(d));
  }
  gw.insert_many("people", std::move(corpus));
  EXPECT_EQ(gw.equality_search("people", "name", Value("same-keyword")).size(), 8u);
}

}  // namespace
}  // namespace datablinder
