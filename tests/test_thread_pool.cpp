/**
 * @file
 * parallelFor on the process-wide pool: deterministic fan-out/join,
 * inline mode, exception propagation, nested fan-outs under
 * std::call_once, the live thread count and the affinity-aware
 * default width.
 *
 * The pool is shared by every test in this binary and never shrinks,
 * so no test here asks for more than 4 jobs: the thread-count checks
 * hold whatever order the tests run in.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "util/thread_pool.hpp"

namespace pcap {
namespace {

/** The "Threads:" line of /proc/self/status, or -1 off Linux. */
long
liveThreads()
{
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("Threads:", 0) == 0)
            return std::stol(line.substr(8));
    return -1;
}

TEST(ParallelFor, InlineModeRunsOnTheCallingThread)
{
    const std::thread::id caller = std::this_thread::get_id();
    for (unsigned jobs : {0u, 1u}) {
        std::vector<std::thread::id> ran(16);
        parallelFor(jobs, ran.size(), [&](std::size_t i) {
            ran[i] = std::this_thread::get_id();
        });
        for (const std::thread::id &id : ran)
            EXPECT_EQ(id, caller);
    }
}

TEST(ParallelFor, CoversEveryIndexOnce)
{
    for (unsigned jobs : {1u, 2u, 3u, 4u}) {
        std::vector<std::atomic<int>> counts(1000);
        parallelFor(jobs, counts.size(),
                    [&](std::size_t i) { ++counts[i]; });
        for (const auto &count : counts)
            EXPECT_EQ(count.load(), 1);
    }
}

TEST(ParallelFor, ResultsMatchSerialLoop)
{
    const std::size_t n = 257;
    std::vector<int> serial(n), parallel(n);
    for (std::size_t i = 0; i < n; ++i)
        serial[i] = static_cast<int>(i * i % 97);

    parallelFor(4, n, [&](std::size_t i) {
        parallel[i] = static_cast<int>(i * i % 97);
    });
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, EmptyAndSingle)
{
    int calls = 0;
    parallelFor(4, 0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(4, 1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, ManyMoreIndicesThanWorkers)
{
    std::atomic<std::size_t> sum{0};
    parallelFor(3, 10000, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 10000u * 9999 / 2);
}

TEST(ParallelFor, RethrowsOnlyAfterEveryParticipantLeft)
{
    // Index 0 throws at once; the others sleep, so the thrower
    // reaches the join long before the rest finish. The rethrow
    // must wait for them: nothing may still be running afterwards.
    std::atomic<int> running{0};
    const auto body = [&](std::size_t i) {
        if (i == 0)
            throw std::runtime_error("boom");
        ++running;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        --running;
    };
    EXPECT_THROW(parallelFor(4, 8, body), std::runtime_error);
    EXPECT_EQ(running.load(), 0);

    // The pool stays usable after a failed batch.
    std::atomic<int> calls{0};
    parallelFor(4, 100, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 100);
}

TEST(ParallelFor, NestedFanOutUnderCallOnceCompletes)
{
    // Three levels at jobs 4, as rows -> apps -> executions: every
    // outer index needs the same memo, whose owner fans out twice
    // more while the other participants block on the flag. With a
    // fixed pool this only finishes if the owner can complete its
    // batches alone, and never runs a blocked participant's work.
    constexpr unsigned kJobs = 4;
    std::once_flag memo;
    std::vector<long> threads(6 * 5, 0); // sampled with every level live
    std::atomic<int> outer{0};
    parallelFor(kJobs, 8, [&](std::size_t) {
        std::call_once(memo, [&] {
            parallelFor(kJobs, 6, [&](std::size_t app) {
                parallelFor(kJobs, 5, [&](std::size_t execution) {
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(200));
                    threads[app * 5 + execution] = liveThreads();
                });
            });
        });
        ++outer;
    });
    EXPECT_EQ(outer.load(), 8);
    for (const long live : threads) {
        EXPECT_NE(live, 0) << "an index did not run";
        EXPECT_LE(live, static_cast<long>(kJobs) + 1);
    }
    EXPECT_LE(liveThreads(), static_cast<long>(kJobs) + 1);
}

TEST(ParallelFor, WideJobsOnANarrowBatchStartFewThreads)
{
    const long before = liveThreads();
    if (before < 0)
        GTEST_SKIP() << "no /proc/self/status";
    std::vector<long> during(3, 0);
    parallelFor(64, during.size(),
                [&](std::size_t i) { during[i] = liveThreads(); });
    for (const long live : during) {
        EXPECT_NE(live, 0) << "an index did not run";
        EXPECT_LE(live, before + 2);
    }
    EXPECT_LE(liveThreads(), before + 2);
}

#if defined(__linux__)
TEST(HardwareJobs, CountsTheAffinityMask)
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    ASSERT_EQ(sched_getaffinity(0, sizeof mask, &mask), 0);
    EXPECT_EQ(ThreadPool::hardwareJobs(),
              static_cast<unsigned>(CPU_COUNT(&mask)));

    // Narrow this test thread's own mask to one of its CPUs, then
    // restore it; nothing else's mask is touched.
    int first = 0;
    while (!CPU_ISSET(first, &mask))
        ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
    const unsigned narrowed = ThreadPool::hardwareJobs();
    ASSERT_EQ(sched_setaffinity(0, sizeof mask, &mask), 0);
    EXPECT_EQ(narrowed, 1u);
}
#endif

} // namespace
} // namespace pcap
