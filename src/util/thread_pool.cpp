#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace pcap {

namespace {

std::atomic<std::uint64_t> gTasksSubmitted{0};
std::atomic<std::uint64_t> gTasksExecuted{0};
std::atomic<std::uint64_t> gTaskNanos{0};
std::atomic<std::uint64_t> gPeakQueueDepth{0};

// The two halves of the installed TaskHook, stored as separate
// atomics so readers never need a lock. Torn reads across the pair
// are benign: each half is checked for null before use, and the
// contract is to install the hook before starting work.
std::atomic<void *(*)()> gHookBegin{nullptr};
std::atomic<void (*)(void *)> gHookEnd{nullptr};

/** One parallelFor call. Lives on the caller's stack; the caller
 * returns only once no worker holds a pointer to it. */
struct Batch
{
    // One shared counter instead of pre-chunking, so uneven cell
    // costs (mplayer vs nedit) still balance across participants.
    std::atomic<std::size_t> next{0};
    std::size_t n = 0;
    const std::function<void(std::size_t)> *body = nullptr;

    // Guarded by Pool::mutex_.
    std::exception_ptr error;  ///< first exception a body threw
    unsigned openSlots = 0;    ///< helper slots not yet taken
    unsigned helpers = 0;      ///< workers inside the batch
    std::condition_variable left; ///< the last helper left
};

class Pool
{
  public:
    /** Deliberately leaked: idle workers wait on it until the
     * process exits. A joining static destructor could run on a
     * worker (fatal() exits from inside a body) and join itself, or
     * wait out batches still running at exit. */
    static Pool &instance()
    {
        static Pool *const pool = new Pool;
        return *pool;
    }

    void run(unsigned width, std::size_t n,
             const std::function<void(std::size_t)> &body)
    {
        Batch batch;
        batch.n = n;
        batch.body = &body;
        const unsigned slots = width - 1;
        gTasksSubmitted.fetch_add(width, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            while (workers_.size() < slots)
                workers_.emplace_back([this] { workerLoop(); });
            batch.openSlots = slots;
            open_.push_back(&batch);
            // Only written under mutex_; atomic for globalStats().
            if (open_.size() > gPeakQueueDepth.load())
                gPeakQueueDepth.store(open_.size());
        }
        for (unsigned i = 0; i < slots; ++i)
            wake_.notify_one();

        stint(batch);

        std::unique_lock<std::mutex> lock(mutex_);
        if (batch.openSlots > 0) // the batch is exhausted: withdraw
            open_.erase(std::find(open_.begin(), open_.end(), &batch));
        batch.left.wait(lock, [&] { return batch.helpers == 0; });
        if (batch.error)
            std::rethrow_exception(batch.error);
    }

  private:
    Pool() = default;

    /** Claim indices of @p batch until it is exhausted. The catch
     * takes every exception, so the task hook's end() always runs
     * (with a null token if begin() threw). */
    void stint(Batch &batch)
    {
        void *token = nullptr;
        const auto start = std::chrono::steady_clock::now();
        try {
            if (auto *begin = gHookBegin.load(std::memory_order_acquire))
                token = begin();
            for (std::size_t i = batch.next.fetch_add(1); i < batch.n;
                 i = batch.next.fetch_add(1))
                (*batch.body)(i);
        } catch (...) {
            batch.next.store(batch.n);
            std::lock_guard<std::mutex> lock(mutex_);
            if (!batch.error)
                batch.error = std::current_exception();
        }
        if (auto *end = gHookEnd.load(std::memory_order_acquire))
            end(token);
        const auto elapsed = std::chrono::steady_clock::now() - start;
        gTaskNanos.fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    elapsed)
                    .count()),
            std::memory_order_relaxed);
        gTasksExecuted.fetch_add(1, std::memory_order_relaxed);
    }

    /** Idle, take a helper slot of the oldest open batch. A batch
     * may already be exhausted; the stint then ends at once. */
    void workerLoop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            wake_.wait(lock, [this] { return !open_.empty(); });
            Batch &batch = *open_.front();
            if (--batch.openSlots == 0)
                open_.pop_front();
            ++batch.helpers;
            lock.unlock();
            stint(batch);
            lock.lock();
            // The caller frees the batch once helpers reaches 0, so
            // this is the last touch.
            if (--batch.helpers == 0)
                batch.left.notify_one();
        }
    }

    std::mutex mutex_;
    std::condition_variable wake_; ///< idle workers wait for slots
    std::deque<Batch *> open_;     ///< batches with helper slots open
    std::vector<std::thread> workers_;
};

} // namespace

ThreadPool::GlobalStats
ThreadPool::globalStats()
{
    GlobalStats stats;
    stats.tasksSubmitted = gTasksSubmitted.load(std::memory_order_relaxed);
    stats.tasksExecuted = gTasksExecuted.load(std::memory_order_relaxed);
    stats.taskNanos = gTaskNanos.load(std::memory_order_relaxed);
    stats.peakQueueDepth =
        gPeakQueueDepth.load(std::memory_order_relaxed);
    return stats;
}

void
ThreadPool::setTaskHook(TaskHook hook)
{
    gHookBegin.store(hook.begin, std::memory_order_release);
    gHookEnd.store(hook.end, std::memory_order_release);
}

unsigned
ThreadPool::hardwareJobs()
{
#if defined(__linux__)
    // hardware_concurrency() counts online CPUs; under taskset or a
    // cpuset the process may run on fewer.
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
        const int cpus = CPU_COUNT(&mask);
        if (cpus > 0)
            return static_cast<unsigned>(cpus);
    }
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

void
parallelFor(unsigned jobs, std::size_t n,
            const std::function<void(std::size_t)> &body)
{
    const std::size_t width = std::min<std::size_t>(jobs, n);
    if (width <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    Pool::instance().run(static_cast<unsigned>(width), n, body);
}

} // namespace pcap
