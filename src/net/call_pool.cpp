#include "net/call_pool.hpp"

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

void CallPool::submit(std::function<void()> job) {
  {
    std::lock_guard lock(mutex_);
    if (queue_.size() < idle_ || workers_.size() < max_workers_) {
      queue_.push_back(std::move(job));
      if (queue_.size() > idle_) workers_.emplace_back([this] { worker(); });
      job = nullptr;
    }
  }
  if (job) {
    job();  // at the cap with every worker busy
  } else {
    cv_.notify_one();
  }
}

void CallPool::run_all(std::size_t n, const std::function<void(std::size_t)>& job) {
  // Per-call completion latch, shared so a worker's final notify never
  // touches a latch the returning caller already destroyed. Every job
  // writes only its own error slot.
  struct Latch {
    std::mutex m;
    std::condition_variable cv;
    std::size_t pending = 0;
  };
  auto latch = std::make_shared<Latch>();
  latch->pending = n - 1;
  std::vector<std::exception_ptr> errors(n);
  auto run_one = [&job, &errors](std::size_t k) {
    try {
      job(k);
    } catch (...) {
      errors[k] = std::current_exception();
    }
  };
  for (std::size_t k = 1; k < n; ++k) {
    submit([&run_one, latch, k] {
      run_one(k);
      std::lock_guard done(latch->m);
      --latch->pending;
      latch->cv.notify_one();
    });
  }
  run_one(0);
  {
    std::unique_lock lock(latch->m);
    latch->cv.wait(lock, [&latch] { return latch->pending == 0; });
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
