// CallPool — the workers that run a cloud's concurrent sub-calls: shard
// scatter and broadcast legs, and hedged replica reads.
//
// Workers are persistent and park on a condition variable between jobs, so
// a scatter costs a condvar wake, not a thread spawn per sub-call. The pool
// grows on demand, one worker per job no idle worker can take, up to a cap.
// A sub-call blocks its worker for a whole channel exchange, and a scatter
// sub-call can itself hedge, so a fixed-size pool could fill with sub-calls
// that all wait on hedges queued behind them. Once the cap is reached, a job
// no worker can take runs on the posting thread instead: no job ever waits
// for a worker that will not come.
//
// Jobs reference the transports that posted them. The destructor runs every
// queued job and joins the workers, so the owner destroys the pool BEFORE
// those transports (core::ShardedCloud declares it after them): a hedge
// loser still inside a slow channel finishes before the channel goes away.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace datablinder::net {

class CallPool {
 public:
  explicit CallPool(std::size_t max_workers);
  ~CallPool();

  CallPool(const CallPool&) = delete;
  CallPool& operator=(const CallPool&) = delete;

  /// Runs `job` on a worker, or on the calling thread when every worker is
  /// busy and the pool is at its cap. `job` must not throw.
  void submit(std::function<void()> job);

  /// Runs job(0) .. job(n-1), n >= 1, concurrently — the caller runs job(0),
  /// the pool the rest — and returns once all have finished, rethrowing the
  /// lowest-indexed failure if any.
  void run_all(std::size_t n, const std::function<void(std::size_t)>& job);

 private:
  void worker();

  const std::size_t max_workers_;
  std::mutex mutex_;  // guards queue_, workers_, idle_, stop_
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t idle_ = 0;  // workers parked in cv_.wait
  bool stop_ = false;
};

}  // namespace datablinder::net
