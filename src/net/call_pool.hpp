// CallPool — the library's one worker pool. It runs a cloud's concurrent
// sub-calls (shard scatter and broadcast legs, hedged replica reads) and
// the Executor's multi-step plan stages, each user on its own instance.
//
// Workers are persistent and park on a condition variable between jobs, so
// a fan-out costs a condvar wake, not a thread spawn per job. The pool
// grows on demand, one worker per job no idle worker can take, up to a cap.
// A sub-call blocks its worker for a whole channel exchange, and a scatter
// sub-call can itself hedge, so a fixed-size pool could fill with sub-calls
// that all wait on hedges queued behind them. Once the cap is reached, a job
// no worker can take runs on the posting thread instead: no job ever waits
// for a worker that will not come. run_all's helpers may queue at the cap,
// because nothing waits for them: the caller claims what they do not.
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

  /// Runs job(0) .. job(n-1), n >= 1, concurrently and returns once all
  /// have finished, rethrowing the lowest-indexed failure if any. The
  /// caller and up to min(n-1, max_workers) pool helpers claim indexes from
  /// a shared counter: the caller keeps working while helpers wake up (at
  /// the cap, until a worker frees), and a helper that wakes after the last
  /// claim returns at once.
  void run_all(std::size_t n, const std::function<void(std::size_t)>& job);

 private:
  /// Queues `job` for a worker, growing the pool when no idle worker is
  /// left for it. At the cap with every worker busy it queues only when
  /// `even_at_cap`; otherwise it leaves `job` alone and returns false.
  bool enqueue(std::function<void()>& job, bool even_at_cap);
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
