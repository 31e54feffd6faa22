// Network substrate tests: message framing, channel accounting/faults, RPC
// dispatch and error propagation, the shared call pool.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "common/stopwatch.hpp"
#include "net/call_pool.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"
#include "net/rpc.hpp"

namespace datablinder::net {
namespace {

TEST(MessageTest, RequestRoundTrip) {
  Request r;
  r.method = "det.search";
  r.payload = Bytes{1, 2, 3};
  const Request back = Request::deserialize(r.serialize());
  EXPECT_EQ(back.method, "det.search");
  EXPECT_EQ(back.payload, (Bytes{1, 2, 3}));
}

TEST(MessageTest, ResponseRoundTrips) {
  const Response ok = Response::success(Bytes{9, 8});
  const Response back = Response::deserialize(ok.serialize());
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.payload, (Bytes{9, 8}));

  const Response err = Response::failure(ErrorCode::kNotFound, "missing doc");
  const Response eback = Response::deserialize(err.serialize());
  EXPECT_FALSE(eback.ok);
  EXPECT_EQ(eback.error, ErrorCode::kNotFound);
  EXPECT_EQ(eback.error_message, "missing doc");
}

TEST(MessageTest, MalformedRejected) {
  EXPECT_THROW(Request::deserialize(Bytes{0, 0}), Error);
  EXPECT_THROW(Response::deserialize(Bytes{}), Error);
  Bytes extra = Response::success({}).serialize();
  extra.push_back(1);
  EXPECT_THROW(Response::deserialize(extra), Error);
}

TEST(ChannelTest, AccountsBytesAndRoundTrips) {
  Channel ch;
  ch.transfer_request(100);
  ch.transfer_response(50);
  ch.transfer_request(10);
  ch.transfer_response(5);
  EXPECT_EQ(ch.stats().bytes_sent.load(), 110u);
  EXPECT_EQ(ch.stats().bytes_received.load(), 55u);
  EXPECT_EQ(ch.stats().round_trips.load(), 2u);
  ch.stats().reset();
  EXPECT_EQ(ch.stats().round_trips.load(), 0u);
}

TEST(ChannelTest, LatencyIsApplied) {
  ChannelConfig cfg;
  cfg.one_way_latency_us = 2000;
  Channel ch(cfg);
  Stopwatch sw;
  ch.transfer_request(10);
  ch.transfer_response(10);
  EXPECT_GE(sw.elapsed_us(), 3500.0);  // ~2 x 2ms, scheduler slack allowed
}

TEST(ChannelTest, BandwidthDelaysLargeTransfers) {
  ChannelConfig cfg;
  cfg.bandwidth_bytes_per_sec = 1000000;  // 1 MB/s
  Channel ch(cfg);
  Stopwatch sw;
  ch.transfer_request(10000);  // => 10ms serialization delay
  EXPECT_GE(sw.elapsed_us(), 8000.0);
}

TEST(ChannelTest, ClosedChannelFails) {
  Channel ch;
  ch.close();
  EXPECT_THROW(ch.transfer_request(1), Error);
  ch.reopen();
  EXPECT_NO_THROW(ch.transfer_request(1));
}

TEST(ChannelTest, FaultInjectionFiresEventually) {
  ChannelConfig cfg;
  cfg.failure_probability = 0.5;
  Channel ch(cfg);
  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    try {
      ch.transfer_request(1);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kUnavailable);
      ++failures;
    }
  }
  EXPECT_GT(failures, 20);
  EXPECT_LT(failures, 180);
}

TEST(RpcTest, DispatchAndErrorPropagation) {
  RpcServer server;
  server.register_method("echo", [](BytesView p) { return Bytes(p.begin(), p.end()); });
  server.register_method("boom", [](BytesView) -> Bytes {
    throw_error(ErrorCode::kSchemaViolation, "bad document");
  });
  EXPECT_THROW(server.register_method("echo", [](BytesView) { return Bytes{}; }), Error);
  EXPECT_EQ(server.method_count(), 2u);

  Channel ch;
  RpcClient client(server, ch);
  EXPECT_EQ(client.call("echo", Bytes{4, 2}), (Bytes{4, 2}));

  try {
    client.call("boom", {});
    FAIL() << "expected error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSchemaViolation);  // code crosses the wire
  }

  try {
    client.call("unknown", {});
    FAIL() << "expected error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotFound);
  }
}

TEST(RpcTest, NonDataBlinderExceptionsBecomeInternal) {
  RpcServer server;
  server.register_method("std", [](BytesView) -> Bytes {
    throw std::runtime_error("plain std failure");
  });
  Channel ch;
  RpcClient client(server, ch);
  try {
    client.call("std", {});
    FAIL() << "expected error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
  }
}

TEST(CallPoolTest, AtTheCapAJobRunsOnThePostingThread) {
  // One worker, held busy: a second job cannot wait for it (it might be the
  // job the worker waits on), so it runs on the submitting thread.
  CallPool pool(1);
  std::mutex m;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  std::thread::id first;
  pool.submit([&] {
    std::unique_lock lock(m);
    first = std::this_thread::get_id();
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return started; });
    EXPECT_NE(first, std::this_thread::get_id());
  }
  std::thread::id second;
  pool.submit([&] { second = std::this_thread::get_id(); });
  EXPECT_EQ(second, std::this_thread::get_id());
  {
    std::lock_guard lock(m);
    release = true;
  }
  cv.notify_all();
}

TEST(CallPoolTest, RunAllFinishesEveryJobThenRethrowsTheLowestIndexedFailure) {
  CallPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.run_all(5, [&ran](std::size_t k) {
      ++ran;
      if (k == 3) throw std::runtime_error("job 3");
      if (k == 1) throw std::runtime_error("job 1");
    });
    FAIL() << "expected a failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 1");
  }
  EXPECT_EQ(ran.load(), 5);
}

TEST(CallPoolTest, RunAllWithMoreJobsThanTheCapRunsEveryIndexExactlyOnce) {
  CallPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::atomic<int>> hits(37);
    pool.run_all(hits.size(), [&hits](std::size_t k) { ++hits[k]; });
    for (std::size_t k = 0; k < hits.size(); ++k) {
      ASSERT_EQ(hits[k].load(), 1) << "round " << round << " index " << k;
    }
  }
}

TEST(CallPoolTest, RunAllReturnsWithoutWaitingForHelpersThatStartLate) {
  // Trivial jobs: the caller claims every index before a parked worker
  // wakes for its helper, returns, and its frame (job, error slots) dies
  // while that helper is still queued. The late helper must find nothing
  // to claim and touch only the shared batch — ASan/TSan flag it if not.
  CallPool pool(4);
  const auto caller = std::this_thread::get_id();
  int caller_ran_all = 0;
  for (int round = 0; round < 1000; ++round) {
    std::array<std::thread::id, 3> ran_on{};
    pool.run_all(ran_on.size(), [&ran_on](std::size_t k) {
      ran_on[k] = std::this_thread::get_id();
    });
    bool all_caller = true;
    for (const auto& id : ran_on) {
      ASSERT_NE(id, std::thread::id{}) << "round " << round;
      all_caller = all_caller && id == caller;
    }
    caller_ran_all += all_caller ? 1 : 0;
  }
  // The scenario is exercised: in some rounds no helper claimed anything.
  EXPECT_GT(caller_ran_all, 0);
}

}  // namespace
}  // namespace datablinder::net
