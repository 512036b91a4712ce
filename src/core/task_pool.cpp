#include "core/task_pool.hpp"

#include <algorithm>

#include "core/trace.hpp"
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

namespace apx {
namespace {

std::atomic<int> g_thread_override{0};

int default_thread_count() {
  if (int v = parse_thread_env(std::getenv("APX_THREADS")); v > 0) return v;
  unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

}  // namespace

int parse_thread_env(const char* text) {
  if (text == nullptr || *text == '\0') return 0;
  char* end = nullptr;
  long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') return 0;
  if (v <= 0) return 0;
  return static_cast<int>(std::min<long>(v, TaskPool::kMaxWorkers));
}

int thread_count() {
  if (int o = g_thread_override.load(std::memory_order_relaxed); o > 0) {
    return o;
  }
  static const int cached = default_thread_count();
  return cached;
}

void set_thread_count(int n) {
  g_thread_override.store(
      n > 0 ? std::min(n, TaskPool::kMaxWorkers) : 0,
      std::memory_order_relaxed);
}

ScopedThreadCount::ScopedThreadCount(int n)
    : previous_(g_thread_override.load(std::memory_order_relaxed)) {
  set_thread_count(n);
}

ScopedThreadCount::~ScopedThreadCount() { set_thread_count(previous_); }

/// One in-flight parallel loop. Chunk claiming is a lock-free fetch_add on
/// `next`; participant registration/retirement runs under the pool mutex,
/// which is what makes retiring the (stack-allocated) job safe: the owner
/// removes it from the active list in the same critical section in which
/// it observes "no chunks left and no registered participant".
struct TaskPool::Job {
  std::atomic<int64_t> next{0};
  int64_t end = 0;
  int64_t grain = 1;
  int max_slots = 1;
  const std::function<void(int, int64_t)>* body = nullptr;

  // Guarded by Impl::mutex.
  int slots_taken = 0;
  int running = 0;
  std::exception_ptr error;

  bool has_work() const {
    return next.load(std::memory_order_relaxed) < end &&
           slots_taken < max_slots;
  }
};

struct TaskPool::Impl {
  std::mutex mutex;
  std::condition_variable work_cv;   // workers: a job gained work
  std::condition_variable done_cv;   // owners: a participant retired
  std::vector<Job*> jobs;            // active loops, steal targets
  std::vector<std::thread> workers;
  bool stop = false;
};

TaskPool::TaskPool() : impl_(new Impl) {}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

TaskPool& TaskPool::instance() {
  // Intentionally leaked (never destructed): worker threads must outlive
  // every static-destruction-order client, and the process exit reclaims
  // everything anyway.
  static TaskPool* pool = new TaskPool();
  return *pool;
}

void TaskPool::ensure_workers(int n) {
  n = std::min(n, kMaxWorkers);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  while (static_cast<int>(impl_->workers.size()) < n) {
    impl_->workers.emplace_back(worker_loop, impl_);
  }
}

void TaskPool::worker_loop(Impl* impl) {
  std::unique_lock<std::mutex> lock(impl->mutex);
  for (;;) {
    impl->work_cv.wait(lock, [&] {
      if (impl->stop) return true;
      for (Job* j : impl->jobs) {
        if (j->has_work()) return true;
      }
      return false;
    });
    if (impl->stop) return;
    Job* job = nullptr;
    for (Job* j : impl->jobs) {
      if (j->has_work()) {
        job = j;
        break;
      }
    }
    if (job == nullptr) continue;
    const int slot = job->slots_taken++;
    ++job->running;
    lock.unlock();

    std::exception_ptr error;
    int64_t chunks_stolen = 0;
    try {
      // One span per participation (not per chunk): cheap, and each pool
      // worker shows up as its own parallel track in the Chrome trace.
      trace::Span span("pool.work");
      for (;;) {
        int64_t i = job->next.fetch_add(job->grain,
                                        std::memory_order_relaxed);
        if (i >= job->end) break;
        ++chunks_stolen;
        int64_t hi = std::min(i + job->grain, job->end);
        for (int64_t k = i; k < hi; ++k) (*job->body)(slot, k);
      }
    } catch (...) {
      error = std::current_exception();
      job->next.store(job->end, std::memory_order_relaxed);  // drain
    }
    if (trace::enabled() && chunks_stolen > 0) {
      static trace::Counter& steals = trace::counter("pool.steals");
      steals.add(chunks_stolen);
    }

    lock.lock();
    if (error && !job->error) job->error = error;
    --job->running;
    impl->done_cv.notify_all();
  }
}

void TaskPool::parallel_for_slotted(
    int64_t begin, int64_t end, int max_slots, int64_t grain,
    const std::function<void(int, int64_t)>& body) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  if (max_slots <= 0) max_slots = thread_count();
  max_slots = static_cast<int>(
      std::min<int64_t>(std::min(max_slots, kMaxWorkers + 1), end - begin));
  if (max_slots <= 1) {
    // APX_THREADS=1 / single-iteration fallback: inline, slot 0, natural
    // exception propagation.
    for (int64_t i = begin; i < end; ++i) body(0, i);
    return;
  }
  ensure_workers(max_slots - 1);
  if (trace::enabled()) {
    static trace::Counter& jobs = trace::counter("pool.jobs");
    jobs.add(1);
  }

  Job job;
  job.next.store(begin, std::memory_order_relaxed);
  job.end = end;
  job.grain = grain;
  job.max_slots = max_slots;
  job.body = &body;

  Impl& impl = *impl_;
  int my_slot;
  {
    std::lock_guard<std::mutex> lock(impl.mutex);
    my_slot = job.slots_taken++;  // the caller always participates
    ++job.running;
    impl.jobs.push_back(&job);
  }
  impl.work_cv.notify_all();

  std::exception_ptr error;
  try {
    trace::Span span("pool.work");
    for (;;) {
      int64_t i = job.next.fetch_add(grain, std::memory_order_relaxed);
      if (i >= end) break;
      int64_t hi = std::min(i + grain, end);
      for (int64_t k = i; k < hi; ++k) body(my_slot, k);
    }
  } catch (...) {
    error = std::current_exception();
    job.next.store(end, std::memory_order_relaxed);
  }

  std::unique_lock<std::mutex> lock(impl.mutex);
  if (error && !job.error) job.error = error;
  --job.running;
  // Retire the job: wait until every registered participant has left,
  // then unlist it while still holding the mutex — no late worker can
  // register afterwards, so the stack frame stays valid.
  impl.done_cv.wait(lock, [&] { return job.running == 0; });
  impl.jobs.erase(std::find(impl.jobs.begin(), impl.jobs.end(), &job));
  std::exception_ptr rethrow = job.error;
  lock.unlock();
  if (rethrow) std::rethrow_exception(rethrow);
}

void TaskPool::parallel_for(int64_t begin, int64_t end,
                            const std::function<void(int64_t)>& body,
                            int max_slots, int64_t grain) {
  parallel_for_slotted(begin, end, max_slots, grain,
                       [&](int, int64_t i) { body(i); });
}

}  // namespace apx
