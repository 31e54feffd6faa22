// Exec-subsystem tests: the planner/executor pipeline, batched candidate
// retrieval (doc.mget), and tactic-parameter parsing.
#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "common/status.hpp"
#include "core/cloud_node.hpp"
#include "core/exec/executor.hpp"
#include "core/gateway.hpp"
#include "core/tactics/builtin.hpp"
#include "core/wire.hpp"
#include "store/docstore.hpp"

namespace datablinder {
namespace {

using core::DocId;
using doc::Document;
using doc::Value;

// --- store-level batched lookup ---------------------------------------------

TEST(MultiGetTest, ReturnsPartialResultsInRequestOrder) {
  store::Collection col("c");
  for (int i = 0; i < 3; ++i) {
    Document d;
    d.id = "id" + std::to_string(i);
    d.set("n", Value(std::int64_t{i}));
    col.put(std::move(d));
  }
  const auto found = col.get_many({"id2", "missing-a", "id0", "missing-b", "id1"});
  ASSERT_EQ(found.size(), 3u);
  EXPECT_EQ(found[0].id, "id2");
  EXPECT_EQ(found[1].id, "id0");
  EXPECT_EQ(found[2].id, "id1");
}

TEST(MultiGetTest, EmptyRequestReturnsEmpty) {
  store::Collection col("c");
  EXPECT_TRUE(col.get_many({}).empty());
}

// --- wire-level doc.mget ------------------------------------------------------

struct Rig {
  Rig() : rpc(cloud.rpc(), channel) {}
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc;
  kms::KeyManager kms;
  store::KvStore local;
};

TEST(MultiGetTest, RpcSkipsVanishedIds) {
  Rig rig;
  for (int i = 0; i < 3; ++i) {
    rig.rpc.call("doc.put",
                 core::wire::pack({{"col", Value("c")},
                                   {"id", Value("d" + std::to_string(i))},
                                   {"blob", Value(Bytes{1, 2, 3})}}));
  }
  doc::Array ids;
  for (const char* id : {"d0", "gone", "d2"}) ids.emplace_back(std::string(id));
  const Bytes reply = rig.rpc.call(
      "doc.mget", core::wire::pack({{"col", Value("c")}, {"ids", Value(ids)}}));
  const doc::Object resp = core::wire::unpack(reply);
  const doc::Array& docs = core::wire::get_arr(resp, "docs");
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(core::wire::get_str(docs[0].as_object(), "id"), "d0");
  EXPECT_EQ(core::wire::get_str(docs[1].as_object(), "id"), "d2");
}

// --- gateway-level round-trip accounting -------------------------------------

schema::Schema det_only_schema(const std::string& name) {
  schema::Schema s(name);
  schema::FieldAnnotation f;
  f.type = schema::FieldType::kString;
  f.sensitive = true;
  f.protection = schema::ProtectionClass::kClass5;
  f.operations = {schema::Operation::kInsert, schema::Operation::kEquality};
  s.field("name", f);
  return s;
}

TEST(BatchedResolutionTest, KCandidateSearchIsOneFetchRoundTrip) {
  Rig rig;
  core::TacticRegistry registry;
  core::register_builtin_tactics(registry);
  core::Gateway gw(rig.rpc, rig.kms, rig.local, registry, {});
  gw.register_schema(det_only_schema("people"));
  ASSERT_EQ(gw.plan("people").fields.at("name").eq_tactic, "DET");

  constexpr int k = 8;
  for (int i = 0; i < k; ++i) {
    Document d;
    d.set("name", Value("popular"));
    gw.insert("people", d);
  }

  const std::uint64_t before = rig.channel.stats().round_trips.load();
  const auto hits = gw.equality_search("people", "name", Value("popular"));
  const std::uint64_t used = rig.channel.stats().round_trips.load() - before;
  EXPECT_EQ(hits.size(), static_cast<std::size_t>(k));
  // One det.search + ONE doc.mget for all k candidates — not k doc.gets.
  EXPECT_EQ(used, 2u);
}

TEST(BatchedResolutionTest, VanishedCandidatesAreSkippedLikeTheOldLoop) {
  Rig rig;
  core::TacticRegistry registry;
  core::register_builtin_tactics(registry);
  core::Gateway gw(rig.rpc, rig.kms, rig.local, registry, {});
  gw.register_schema(det_only_schema("people"));

  std::vector<DocId> ids;
  for (int i = 0; i < 4; ++i) {
    Document d;
    d.set("name", Value("v"));
    ids.push_back(gw.insert("people", d));
  }
  // Delete one document behind the index's back: the index still lists it.
  rig.rpc.call("doc.del",
               core::wire::pack({{"col", Value("people")}, {"id", Value(ids[1])}}));

  const auto hits = gw.equality_search("people", "name", Value("v"));
  EXPECT_EQ(hits.size(), 3u);  // partial result, no throw
  for (const auto& d : hits) EXPECT_NE(d.id, ids[1]);
}

TEST(BatchedResolutionTest, PipelineStagesAreTimed) {
  Rig rig;
  core::TacticRegistry registry;
  core::register_builtin_tactics(registry);
  core::Gateway gw(rig.rpc, rig.kms, rig.local, registry, {});
  gw.register_schema(det_only_schema("people"));

  Document d;
  d.set("name", Value("x"));
  gw.insert("people", d);
  gw.equality_search("people", "name", Value("x"));

  // The Fig. 1 perf reification covers the core pipeline itself.
  using core::TacticOperation;
  EXPECT_EQ(gw.perf().stats("core.store", TacticOperation::kInsert).count, 1u);
  EXPECT_EQ(gw.perf().stats("core.index", TacticOperation::kInsert).count, 1u);
  EXPECT_EQ(gw.perf().stats("core.index", TacticOperation::kEqualitySearch).count, 1u);
  EXPECT_EQ(gw.perf().stats("core.resolve", TacticOperation::kEqualitySearch).count, 1u);
  EXPECT_EQ(gw.perf().stats("core.verify", TacticOperation::kEqualitySearch).count, 1u);
  // Tactic-level series are still recorded.
  EXPECT_EQ(gw.perf().stats("DET", TacticOperation::kInsert).count, 1u);
}

// --- GatewayContext::param_int ------------------------------------------------

TEST(ParamIntTest, ParsesValidAndFallsBack) {
  core::GatewayContext ctx;
  ctx.params["bits"] = "256";
  EXPECT_EQ(ctx.param_int("bits", 7), 256);
  EXPECT_EQ(ctx.param_int("absent", 7), 7);
}

TEST(ParamIntTest, MalformedValuesBecomeTypedErrors) {
  core::GatewayContext ctx;
  ctx.params["bits"] = "not-a-number";
  ctx.params["trail"] = "12abc";
  ctx.params["huge"] = "99999999999999999999";
  ctx.params["empty"] = "";
  for (const char* name : {"bits", "trail", "huge", "empty"}) {
    try {
      ctx.param_int(name, 0);
      FAIL() << "expected kInvalidArgument for param " << name;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << "error must name the parameter";
    }
  }
}

// --- executor error propagation ----------------------------------------------

TEST(ExecutorTest, StepFailureSurfacesOnCallingThread) {
  Rig rig;
  core::TacticRegistry registry;
  core::register_builtin_tactics(registry);
  core::Gateway gw(rig.rpc, rig.kms, rig.local, registry, {});
  gw.register_schema(det_only_schema("people"));

  // Close the channel: the doc.put step inside the plan must fail and the
  // error must reach the caller as the original typed Error.
  rig.channel.close();
  Document d;
  d.set("name", Value("x"));
  try {
    gw.insert("people", d);
    FAIL() << "expected kUnavailable";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnavailable);
  }
  rig.channel.reopen();
  EXPECT_NO_THROW(gw.insert("people", d));
}

TEST(ExecutorTest, LowestIndexedStepFailureIsRethrownAfterEveryStepRan) {
  core::PerfRegistry perf;
  core::exec::Executor executor(perf);
  std::atomic<int> ran{0};
  core::exec::OperationPlan plan;
  plan.op = core::TacticOperation::kInsert;
  core::exec::PlanStage stage{"index", {}};
  for (int i = 0; i < 8; ++i) {
    core::exec::PlanStep step;
    step.label = "step" + std::to_string(i);
    step.run = [&ran, i] {
      ++ran;
      if (i == 5) throw Error(ErrorCode::kInternal, "step 5");
      if (i == 2) throw Error(ErrorCode::kUnavailable, "step 2");
    };
    stage.steps.push_back(std::move(step));
  }
  plan.stages.push_back(std::move(stage));
  try {
    executor.run(plan);
    FAIL() << "expected the step 2 failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnavailable);
  }
  EXPECT_EQ(ran.load(), 8);
}

}  // namespace
}  // namespace datablinder
