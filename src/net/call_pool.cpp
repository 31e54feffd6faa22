#include "net/call_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace datablinder::net {

CallPool::CallPool(std::size_t max_workers) : max_workers_(max_workers) {}

CallPool::~CallPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

bool CallPool::enqueue(std::function<void()>& job, bool even_at_cap) {
  {
    std::lock_guard lock(mutex_);
    const bool can_grow = workers_.size() < max_workers_;
    if (!even_at_cap && queue_.size() >= idle_ && !can_grow) return false;
    queue_.push_back(std::move(job));
    if (queue_.size() > idle_ && can_grow) workers_.emplace_back([this] { worker(); });
  }
  cv_.notify_one();
  return true;
}

void CallPool::submit(std::function<void()> job) {
  if (!enqueue(job, false)) job();  // at the cap with every worker busy
}

void CallPool::run_all(std::size_t n, const std::function<void(std::size_t)>& job) {
  // Claim-based: the caller and every helper take the next unclaimed index
  // from `next`, so no index waits for a helper the scheduler has not run
  // yet. `job` and `errors` live in the caller's frame and are touched only
  // after a successful claim; the caller returns once `done` reaches n,
  // i.e. after every claimed index finished. A helper that starts after
  // the last claim finds nothing and returns touching only the shared
  // batch.
  struct Batch {
    const std::function<void(std::size_t)>* job;
    std::exception_ptr* errors;
    std::size_t n;
    std::atomic<std::size_t> next{0};
    std::mutex m;
    std::condition_variable cv;
    std::size_t done = 0;  // guarded by m
  };
  std::vector<std::exception_ptr> errors(n);
  auto batch = std::make_shared<Batch>();
  batch->job = &job;
  batch->errors = errors.data();
  batch->n = n;
  auto drain = [](Batch& b) {
    for (;;) {
      const std::size_t k = b.next.fetch_add(1, std::memory_order_relaxed);
      if (k >= b.n) return;
      try {
        (*b.job)(k);
      } catch (...) {
        b.errors[k] = std::current_exception();
      }
      std::lock_guard lock(b.m);
      if (++b.done == b.n) b.cv.notify_all();
    }
  };
  // Helpers are optional — the caller claims whatever they do not — so they
  // queue even at the cap, where a worker joins in as soon as it frees up.
  // More helpers than workers could never all run at once.
  const std::size_t helpers = std::min(n - 1, max_workers_);
  for (std::size_t h = 0;
       h < helpers && batch->next.load(std::memory_order_relaxed) < n; ++h) {
    std::function<void()> helper = [batch, drain] { drain(*batch); };
    enqueue(helper, true);
  }
  drain(*batch);
  {
    std::unique_lock lock(batch->m);
    batch->cv.wait(lock, [&batch] { return batch->done == batch->n; });
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// Persistent workers. Spawning a thread per sub-call would burn a
// pthread_create/join pair per shard per scatter (tens of microseconds
// each, comparable to the sub-call itself on a loaded host); the pool pays
// that once and every later job is a condvar wake.
// dblint:thread-root
void CallPool::worker() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mutex_);
      ++idle_;
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      --idle_;
      if (queue_.empty()) return;  // stopping, and every queued job has run
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    // 'job' was moved OUT of the queue under the lock; it owns its state.
    // dblint:allow(guard-escape): job owns its state after the move-out
    job();
  }
}

}  // namespace datablinder::net
