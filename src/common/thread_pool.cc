#include "common/thread_pool.h"

#include <cerrno>
#include <cstdlib>
#include <exception>
#include <memory>
#include <utility>

#include "common/macros.h"
#include "common/mutex.h"

namespace crowdsky {
namespace {

// True on threads that are pool workers; nested ParallelFor calls detect
// this and run inline instead of enqueuing (the fixed-size pool could not
// otherwise guarantee progress for the inner loop).
thread_local bool tls_in_pool_worker = false;

Mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool CROWDSKY_GUARDED_BY(g_pool_mutex);

}  // namespace

struct ThreadPool::Job {
  explicit Job(size_t n) : pending(n) {}
  Mutex m;
  CondVar cv;
  size_t pending CROWDSKY_GUARDED_BY(m);
  std::exception_ptr error CROWDSKY_GUARDED_BY(m);  // first chunk failure
};

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {
  const auto num_workers = static_cast<size_t>(num_threads_ - 1);
  deques_.resize(num_workers);
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  stat_submitted_.fetch_add(1, std::memory_order_relaxed);
  if (workers_.empty()) {
    task();  // single-thread pool: synchronous, deterministic
    stat_executed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  {
    MutexLock lock(mutex_);
    deques_[next_deque_].push_back(std::move(task));
    next_deque_ = (next_deque_ + 1) % deques_.size();
    NoteEnqueuedLocked();
  }
  cv_.NotifyOne();
}

void ThreadPool::NoteEnqueuedLocked() {
  size_t depth = 0;
  for (const auto& d : deques_) depth += d.size();
  const auto depth64 = static_cast<int64_t>(depth);
  if (depth64 > stat_max_queue_depth_.load(std::memory_order_relaxed)) {
    stat_max_queue_depth_.store(depth64, std::memory_order_relaxed);
  }
}

bool ThreadPool::IdleLocked() const {
  if (busy_workers_ != 0) return false;
  for (const auto& d : deques_) {
    if (!d.empty()) return false;
  }
  return true;
}

void ThreadPool::WaitIdle() {
  if (workers_.empty()) return;
  MutexLock lock(mutex_);
  while (!IdleLocked()) cv_.Wait(mutex_);
}

bool ThreadPool::PopTask(size_t self, std::function<void()>* task) {
  // Callers hold mutex_. Own deque first (front: LIFO-ish cache locality
  // for the owner), then steal from the back of the other deques.
  if (self < deques_.size() && !deques_[self].empty()) {
    *task = std::move(deques_[self].front());
    deques_[self].pop_front();
    return true;
  }
  const size_t n = deques_.size();
  for (size_t k = 0; k < n; ++k) {
    const size_t victim = (self + 1 + k) % n;
    if (victim == self || deques_[victim].empty()) continue;
    *task = std::move(deques_[victim].back());
    deques_[victim].pop_back();
    stat_steals_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t self) {
  tls_in_pool_worker = true;
  mutex_.lock();
  while (true) {
    std::function<void()> task;
    if (PopTask(self, &task)) {
      ++busy_workers_;
      mutex_.unlock();
      task();
      stat_executed_.fetch_add(1, std::memory_order_relaxed);
      mutex_.lock();
      --busy_workers_;
      if (busy_workers_ == 0) cv_.NotifyAll();  // wake WaitIdle
      continue;
    }
    if (stop_) break;
    cv_.Wait(mutex_);
  }
  mutex_.unlock();
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t, size_t)>& fn) {
  if (end <= begin) return;
  const size_t n = end - begin;
  if (grain == 0) grain = 1;
  if (num_threads_ <= 1 || n <= grain || tls_in_pool_worker) {
    fn(begin, end);
    return;
  }

  // ~4 chunks per thread so work-stealing can rebalance skewed chunks
  // (e.g. the triangular row loops of DominanceStructure).
  const auto target = static_cast<size_t>(num_threads_) * 4;
  size_t chunk = (n + target - 1) / target;
  if (chunk < grain) chunk = grain;
  const size_t num_chunks = (n + chunk - 1) / chunk;

  Job job(num_chunks);
  stat_parallel_fors_.fetch_add(1, std::memory_order_relaxed);
  stat_submitted_.fetch_add(static_cast<int64_t>(num_chunks),
                            std::memory_order_relaxed);
  const std::function<void(size_t, size_t)>* body = &fn;
  {
    MutexLock lock(mutex_);
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t b = begin + c * chunk;
      const size_t e = b + chunk < end ? b + chunk : end;
      deques_[next_deque_].emplace_back([&job, body, b, e] {
        const bool was_worker = tls_in_pool_worker;
        tls_in_pool_worker = true;  // chunks never spawn sub-chunks
        try {
          (*body)(b, e);
        } catch (...) {
          MutexLock job_lock(job.m);
          if (!job.error) job.error = std::current_exception();
        }
        tls_in_pool_worker = was_worker;
        // The decrement, notify and unlock all happen before the caller
        // can observe pending == 0 under job.m, so destroying the
        // stack-allocated Job after that observation is safe.
        MutexLock job_lock(job.m);
        if (--job.pending == 0) job.cv.NotifyAll();
      });
      next_deque_ = (next_deque_ + 1) % deques_.size();
    }
    NoteEnqueuedLocked();
  }
  cv_.NotifyAll();

  // The calling thread participates until its job drains.
  for (;;) {
    {
      MutexLock job_lock(job.m);
      if (job.pending == 0) break;
    }
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      if (!PopTask(deques_.size(), &task)) task = nullptr;
    }
    if (task) {
      task();
      stat_executed_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Nothing runnable: the remaining chunks are in flight on workers.
    job.m.lock();
    while (job.pending != 0) job.cv.Wait(job.m);
    job.m.unlock();
    break;
  }
  std::exception_ptr error;
  {
    MutexLock job_lock(job.m);
    error = job.error;
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::Global() {
  MutexLock lock(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(DefaultThreads());
  return *g_pool;
}

int ThreadPool::DefaultThreads() {
  // The override is process-wide config read at pool (re)creation only.
  // The library's only setenv (dist/shard_runner.cc) runs before a shard
  // child starts any thread, so this getenv cannot race it.
  // NOLINTNEXTLINE(concurrency-mt-unsafe): see above
  if (const char* env = std::getenv("CROWDSKY_THREADS")) {
    // Strict parse: a typo'd override ("fast", "1.5", "0") silently
    // falling back to hardware_concurrency would be worse than failing —
    // the user believes they pinned the thread count (e.g. for the
    // bit-identical threads=1 path) and they did not.
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    CROWDSKY_CHECK_MSG(end != env && *end == '\0' && errno == 0 &&
                           v >= 1 && v <= 4096,
                       "CROWDSKY_THREADS must be an integer in [1, 4096]");
    return static_cast<int>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::StatsSnapshot ThreadPool::stats() const {
  StatsSnapshot s;
  s.tasks_submitted = stat_submitted_.load(std::memory_order_relaxed);
  s.tasks_executed = stat_executed_.load(std::memory_order_relaxed);
  s.steals = stat_steals_.load(std::memory_order_relaxed);
  s.parallel_fors = stat_parallel_fors_.load(std::memory_order_relaxed);
  s.max_queue_depth = stat_max_queue_depth_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::SetGlobalThreads(int num_threads) {
  MutexLock lock(g_pool_mutex);
  g_pool = std::make_unique<ThreadPool>(
      num_threads >= 1 ? num_threads : DefaultThreads());
}

}  // namespace crowdsky
