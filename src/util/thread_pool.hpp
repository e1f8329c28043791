/**
 * @file
 * The process-wide scheduler of the parallel experiment engine.
 *
 * parallelFor(jobs, n, body) is the one entry point. A call
 * publishes one *batch*: an atomic next index, n, the body and the
 * first exception any body call throws. The calling thread claims
 * indices of that batch until none are left, and at most
 * min(jobs, n) - 1 pool workers help it. Every participant writes
 * only index-owned state and the call joins before returning, so
 * results are positionally deterministic no matter how the OS
 * schedules the threads. jobs <= 1 (or n <= 1) runs the loop inline
 * on the calling thread and starts no thread.
 *
 * A *task* is one participant's stint on a batch: from its first
 * claimed index to the moment it finds the batch exhausted. The
 * caller's stint is a task too. Task hooks and GlobalStats count
 * stints.
 *
 * The pool is persistent: it starts workers lazily, up to the widest
 * batch ever asked for, and never shrinks. A worker joins a batch
 * only while idle, and a caller never runs another batch's work
 * while it waits. Nested calls (rows -> apps -> executions) at the
 * same width therefore start no further thread and cannot deadlock:
 * a caller can always finish its own batch alone, and a
 * std::call_once owner never re-enters its own flag through
 * somebody else's work.
 */

#ifndef PCAP_UTIL_THREAD_POOL_HPP
#define PCAP_UTIL_THREAD_POOL_HPP

#include <cstddef>
#include <cstdint>
#include <functional>

namespace pcap {

/** Process-wide scheduler statistics, hook and sizing. The pool
 * itself is internal; parallelFor() is how work reaches it. */
class ThreadPool
{
  public:
    ThreadPool() = delete;

    /**
     * Process-wide task accounting. Exported by bench_all as
     * pcap_thread_pool_* wall metrics.
     */
    struct GlobalStats {
        std::uint64_t tasksSubmitted = 0; ///< stints offered
        std::uint64_t tasksExecuted = 0;  ///< stints run
        std::uint64_t taskNanos = 0;      ///< summed stint wall time
        std::uint64_t peakQueueDepth = 0; ///< most batches open at once
    };

    /** Snapshot of the process-wide task counters. */
    static GlobalStats globalStats();

    /**
     * Optional process-wide observation hook around each task:
     * begin() runs on the participating thread just before its
     * stint, end(token) right after with begin's return value (null
     * if begin threw) — even when the body throws. Plain function
     * pointers (not std::function) so installing and invoking stay
     * lock-free; util cannot depend on obs, so the tracer installs
     * itself through this seam (obs::installThreadPoolTraceHook).
     */
    struct TaskHook {
        void *(*begin)() = nullptr;
        void (*end)(void *token) = nullptr;
    };

    /** Install @p hook for every subsequent stint; a
     * default-constructed hook uninstalls. Not synchronized with
     * running stints — install before starting work. */
    static void setTaskHook(TaskHook hook);

    /** CPUs this process may run on (its affinity mask), else the
     * online CPU count; at least 1. */
    static unsigned hardwareJobs();
};

/**
 * Deterministic fan-out/join: run body(i) for every i in [0, n) on
 * the calling thread plus at most min(jobs, n) - 1 pool workers,
 * and return once every participant has left the batch. The body
 * must confine its writes to index-owned state; under that contract
 * the result is identical to `for (i = 0; i < n; ++i) body(i)`.
 * The first exception a body call throws stops further claims and
 * is rethrown here after the batch is empty.
 */
void parallelFor(unsigned jobs, std::size_t n,
                 const std::function<void(std::size_t)> &body);

} // namespace pcap

#endif // PCAP_UTIL_THREAD_POOL_HPP
