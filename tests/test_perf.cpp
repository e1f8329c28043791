/**
 * @file
 * Hardware-counter self-profiling (obs/perf) and peak-RSS
 * introspection (util/resource).
 *
 * CI containers rarely grant perf_event_open, so the suite pins the
 * *contract* rather than the counters: the software fallback must be
 * forced cleanly via PCAP_PERF_BACKEND=software, report the same
 * JSON shape as the hardware backend, account real thread CPU time
 * in task-clock, and never fake hardware counts. Hardware-only
 * assertions run only where the probe says counters exist.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/tracing.hpp"
#include "util/json.hpp"
#include "util/resource.hpp"

namespace pcap::obs {
namespace {

/** Scoped PCAP_PERF_BACKEND override, restored on destruction. */
class BackendEnv
{
  public:
    explicit BackendEnv(const char *value)
    {
        const char *old = std::getenv("PCAP_PERF_BACKEND");
        if (old)
            saved_ = old;
        had_ = old != nullptr;
        setenv("PCAP_PERF_BACKEND", value, 1);
    }

    ~BackendEnv()
    {
        if (had_)
            setenv("PCAP_PERF_BACKEND", saved_.c_str(), 1);
        else
            unsetenv("PCAP_PERF_BACKEND");
    }

  private:
    std::string saved_;
    bool had_ = false;
};

/** Scoped profiler installation (mirrors bench_all's setup). */
class ScopedProfiler
{
  public:
    explicit ScopedProfiler(PerfProfiler &profiler)
    {
        setPerfProfiler(&profiler);
    }

    ~ScopedProfiler() { setPerfProfiler(nullptr); }
};

/** Burn thread CPU time until the thread clock visibly advances. */
void
spinUntilCpuTimeAdvances()
{
    std::uint64_t acc = 0;
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 50; ++i) {
        for (std::uint64_t k = 0; k < 2'000'000; ++k)
            acc += k * k;
        sink = acc;
    }
    (void)sink;
}

TEST(Resource, PeakRssNonZeroOnLinux)
{
#if defined(__linux__)
    EXPECT_GT(peakRssBytes(), 0u);
#else
    GTEST_SKIP() << "peak RSS only guaranteed on Linux";
#endif
}

TEST(Resource, PeakRssMonotoneAcrossAllocation)
{
    const std::uint64_t before = peakRssBytes();
    // Touch ~16 MiB so the high-water mark has something to move
    // past; the mark may already be higher (other tests ran), so
    // the assertion is monotonicity, not growth.
    std::vector<char> block(16u << 20);
    for (std::size_t i = 0; i < block.size(); i += 4096)
        block[i] = static_cast<char>(i);
    const std::uint64_t after = peakRssBytes();
    EXPECT_GE(after, before);
#if defined(__linux__)
    EXPECT_GT(after, 0u);
#endif
}

TEST(PerfCounts, RatiosAreZeroSafe)
{
    const PerfCounts zero;
    EXPECT_EQ(zero.ipc(), 0.0);
    EXPECT_EQ(zero.cacheMissRate(), 0.0);
    EXPECT_EQ(zero.branchMissRate(), 0.0);

    PerfCounts counts;
    counts.cycles = 100;
    counts.instructions = 250;
    counts.cacheReferences = 40;
    counts.cacheMisses = 10;
    counts.branchMisses = 5;
    EXPECT_DOUBLE_EQ(counts.ipc(), 2.5);
    EXPECT_DOUBLE_EQ(counts.cacheMissRate(), 0.25);
    EXPECT_DOUBLE_EQ(counts.branchMissRate(), 0.02);
}

TEST(PerfCounts, SinceSaturatesAndPropagatesMultiplexing)
{
    PerfCounts end;
    end.cycles = 50;
    end.taskClockNs = 100;
    PerfCounts start;
    start.cycles = 80; // scaling jitter: start "ahead" of end
    start.multiplexed = true;
    const PerfCounts delta = end.since(start);
    EXPECT_EQ(delta.cycles, 0u) << "negative deltas must clamp";
    EXPECT_EQ(delta.taskClockNs, 100u);
    EXPECT_TRUE(delta.multiplexed);
}

TEST(PerfCounts, AddAccumulates)
{
    PerfCounts total;
    PerfCounts part;
    part.cycles = 7;
    part.instructions = 11;
    part.multiplexed = true;
    total.add(part);
    total.add(part);
    EXPECT_EQ(total.cycles, 14u);
    EXPECT_EQ(total.instructions, 22u);
    EXPECT_TRUE(total.multiplexed);
}

TEST(PerfSpan, NoOpWithoutProfiler)
{
    ASSERT_EQ(perfProfiler(), nullptr);
    ASSERT_FALSE(perfEnabled());
    PerfCounts into;
    {
        Span named("test:region");
        Span pointed("test:into", {}, &into);
        spinUntilCpuTimeAdvances();
    }
    EXPECT_EQ(into.taskClockNs, 0u);
}

TEST(PerfProfiler, ForcedSoftwareBackendIsHonest)
{
    BackendEnv env("software");
    PerfProfiler profiler;
    EXPECT_EQ(profiler.backend(), PerfBackend::Software);
    EXPECT_NE(profiler.backendDetail().find("PCAP_PERF_BACKEND"),
              std::string::npos)
        << profiler.backendDetail();

    ScopedProfiler installed(profiler);
    // A named aggregate needs no trace recorder.
    ASSERT_EQ(traceRecorder(), nullptr);
    {
        Span region("test:spin");
        spinUntilCpuTimeAdvances();
    }

    const auto regions = profiler.regions();
    ASSERT_EQ(regions.size(), 1u);
    EXPECT_EQ(regions[0].first, "test:spin");
    const PerfCounts &counts = regions[0].second;
    // The software backend reports real thread CPU time and never
    // fakes hardware counters.
    EXPECT_GT(counts.taskClockNs, 0u);
    EXPECT_GT(counts.timeEnabledNs, 0u);
    EXPECT_EQ(counts.cycles, 0u);
    EXPECT_EQ(counts.instructions, 0u);
    EXPECT_EQ(counts.cacheMisses, 0u);
}

TEST(PerfProfiler, RegionsAccumulateAndSort)
{
    BackendEnv env("software");
    PerfProfiler profiler;
    ScopedProfiler installed(profiler);

    PerfCounts into;
    {
        Span b("test:b");
        Span a("test:a");
        Span pointed("test:into", {}, &into); // into, not a row
        spinUntilCpuTimeAdvances();
    }
    {
        // A name from caller-owned storage folds into the same row.
        const std::string dynamic = "test:a";
        Span a(dynamic.c_str());
        spinUntilCpuTimeAdvances();
    }

    const auto regions = profiler.regions();
    ASSERT_EQ(regions.size(), 2u);
    EXPECT_EQ(regions[0].first, "test:a");
    EXPECT_EQ(regions[1].first, "test:b");
    EXPECT_GT(regions[0].second.taskClockNs, 0u);
    EXPECT_GT(into.taskClockNs, 0u);
}

TEST(PerfProfiler, SuccessiveProfilersNeverReuseStaleGroups)
{
    BackendEnv env("software");
    // Stack-local profilers land at the same address run after run,
    // so the per-thread group slot must key on a generation id, not
    // the profiler's address — an address-keyed slot would hand
    // every profiler after the first a freed group (use-after-free
    // under ASan).
    for (int i = 0; i < 3; ++i) {
        PerfProfiler profiler;
        ScopedProfiler installed(profiler);
        {
            Span region("test:generation");
            spinUntilCpuTimeAdvances();
        }
        const auto regions = profiler.regions();
        ASSERT_EQ(regions.size(), 1u);
        EXPECT_GT(regions[0].second.taskClockNs, 0u);
    }
}

TEST(PerfProfiler, WorkerThreadsGetTheirOwnGroups)
{
    BackendEnv env("software");
    PerfProfiler profiler;
    ScopedProfiler installed(profiler);

    std::thread worker([] {
        Span region("test:worker");
        spinUntilCpuTimeAdvances();
    });
    worker.join();
    {
        Span region("test:main");
        spinUntilCpuTimeAdvances();
    }

    const auto regions = profiler.regions();
    ASSERT_EQ(regions.size(), 2u);
    EXPECT_EQ(regions[0].first, "test:main");
    EXPECT_EQ(regions[1].first, "test:worker");
    EXPECT_GT(regions[1].second.taskClockNs, 0u)
        << "worker-thread CPU time must land in its own region";
}

/** Key set of one serialized counts object, in emission order. */
std::vector<std::string>
jsonKeys(const Json &obj)
{
    return obj.keys();
}

TEST(PerfJson, SoftwareAndHardwareShareOneShape)
{
    // Shape identity is by construction (one serializer), but pin
    // it anyway: a backend-conditional field would break consumers
    // exactly on the hosts where nobody looks.
    const std::vector<std::string> expected = {
        "cycles",          "instructions",
        "cache_references", "cache_misses",
        "branch_misses",   "task_clock_ns",
        "time_enabled_ns", "time_running_ns",
        "multiplexed",     "ipc",
        "cache_miss_rate", "branch_miss_rate",
    };
    EXPECT_EQ(jsonKeys(perfCountsJson(PerfCounts{})), expected);

    BackendEnv env("software");
    PerfProfiler software;
    ScopedProfiler installed(software);
    {
        Span region("test:shape");
        spinUntilCpuTimeAdvances();
    }
    const Json block = perfToJson(software);
    EXPECT_EQ(block.find("schema")->asString(), "pcap-perf-v1");
    EXPECT_EQ(block.find("backend")->asString(), "software");
    const Json &regions = *block.find("regions");
    ASSERT_EQ(regions.size(), 1u);
    std::vector<std::string> withName = {"region"};
    withName.insert(withName.end(), expected.begin(),
                    expected.end());
    EXPECT_EQ(jsonKeys(regions.at(0)), withName);
}

TEST(PerfJson, HardwareBackendWhereAvailable)
{
    const PerfCapability cap = PerfCounterGroup::probe();
    if (!cap.hardware)
        GTEST_SKIP() << "no perf_event_open here: " << cap.detail;

    PerfProfiler profiler;
    ASSERT_EQ(profiler.backend(), PerfBackend::Hardware);
    ScopedProfiler installed(profiler);
    {
        Span region("test:hw");
        spinUntilCpuTimeAdvances();
    }
    const auto regions = profiler.regions();
    ASSERT_EQ(regions.size(), 1u);
    EXPECT_GT(regions[0].second.cycles, 0u);
    EXPECT_GT(regions[0].second.instructions, 0u);
    // Same JSON shape as the software backend (the identity the
    // fallback contract promises).
    const Json block = perfToJson(profiler);
    EXPECT_EQ(block.find("backend")->asString(), "hardware");
    ASSERT_EQ(block.find("regions")->size(), 1u);
    EXPECT_EQ(jsonKeys(block.find("regions")->at(0)).size(), 13u);
}

TEST(PerfMetrics, RecordsOneSeriesSetPerRegion)
{
    BackendEnv env("software");
    PerfProfiler profiler;
    ScopedProfiler installed(profiler);
    {
        Span region("test:metrics");
        spinUntilCpuTimeAdvances();
    }

    MetricsRegistry registry;
    recordPerfMetrics(profiler, registry);
    const Labels labels = {{"region", "test:metrics"}};
    EXPECT_EQ(
        registry.counter("pcap_perf_cycles_total", labels).value(),
        0u);
    EXPECT_GT(
        registry.gauge("pcap_perf_task_clock_seconds", labels)
            .value(),
        0.0);
    EXPECT_DOUBLE_EQ(
        registry.gauge("pcap_perf_time_running_ratio", labels)
            .value(),
        1.0)
        << "software backend never multiplexes";
}

TEST(Manifest, BuildInfoIdentifiesThisBinary)
{
    const BuildInfo info = collectBuildInfo();
    EXPECT_TRUE(info.compiler == "gcc" ||
                info.compiler == "clang" ||
                info.compiler == "unknown");
    EXPECT_FALSE(info.compilerVersion.empty());
    EXPECT_FALSE(info.cxxStandard.empty());
}

TEST(Manifest, BuildAndPerfLandInJson)
{
    RunManifest manifest;
    manifest.build = collectBuildInfo();
    manifest.perfBackend = "software";
    manifest.perfDetail = "forced for the test";
    manifest.perfRequested = true;

    std::ostringstream os;
    manifest.toJson().dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("\"build\""), std::string::npos);
    EXPECT_NE(text.find("\"compiler\""), std::string::npos);
    EXPECT_NE(text.find("\"perf\""), std::string::npos);
    EXPECT_NE(text.find("\"software\""), std::string::npos);
}

} // namespace
} // namespace pcap::obs
