#include "obs/perf.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>

#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace pcap::obs {

namespace {

std::atomic<PerfProfiler *> gProfiler{nullptr};

/** Source of PerfProfiler::generation_ ids. Never reused, so a
 * thread slot left behind by a destroyed profiler can never match a
 * new one — even when the stack hands the new profiler the old
 * profiler's address. */
std::atomic<std::uint64_t> gProfilerGeneration{0};

/** Per-thread group cache, keyed by the owning profiler's generation
 * id so a fresh profiler never sees a stale pointer (same discipline
 * as the trace recorder's buffer slot). */
struct ThreadSlot
{
    std::uint64_t owner = 0; ///< profiler generation, 0 = none
    void *group = nullptr;
};

thread_local ThreadSlot tSlot;

std::uint64_t
monotonicNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Thread CPU time (user + system) in nanoseconds — the software
 * backend's stand-in for the task-clock counter. */
std::uint64_t
threadCpuNowNs()
{
#if defined(__linux__)
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
        return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
               static_cast<std::uint64_t>(ts.tv_nsec);
    rusage usage{};
    if (getrusage(RUSAGE_THREAD, &usage) == 0) {
        const auto toNs = [](const timeval &tv) {
            return static_cast<std::uint64_t>(tv.tv_sec) *
                       1000000000ull +
                   static_cast<std::uint64_t>(tv.tv_usec) * 1000ull;
        };
        return toNs(usage.ru_utime) + toNs(usage.ru_stime);
    }
#endif
    return 0;
}

std::uint64_t
saturatingSub(std::uint64_t a, std::uint64_t b)
{
    return a > b ? a - b : 0;
}

#if defined(__linux__)

/** PerfCounts slot indices: which field a group value lands in. */
enum PerfSlot
{
    SlotCycles = 0,
    SlotInstructions,
    SlotCacheReferences,
    SlotCacheMisses,
    SlotBranchMisses,
    SlotTaskClock,
};

struct EventSpec
{
    std::uint32_t type;
    std::uint64_t config;
    int slot;
};

/** The group, leader first. task-clock is a software event but the
 * kernel allows it as a sibling in a hardware group. */
constexpr EventSpec kEvents[] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, SlotCycles},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS,
     SlotInstructions},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES,
     SlotCacheReferences},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES,
     SlotCacheMisses},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES,
     SlotBranchMisses},
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK, SlotTaskClock},
};

int
openPerfEvent(const EventSpec &spec, int groupFd)
{
    perf_event_attr attr{};
    attr.size = sizeof attr;
    attr.type = spec.type;
    attr.config = spec.config;
    // The leader starts disabled so the whole group enables as one
    // unit; siblings inherit the leader's run state.
    attr.disabled = groupFd == -1 ? 1 : 0;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP |
                       PERF_FORMAT_TOTAL_TIME_ENABLED |
                       PERF_FORMAT_TOTAL_TIME_RUNNING;
    return static_cast<int>(syscall(SYS_perf_event_open, &attr, 0,
                                    -1, groupFd, 0));
}

std::string
openFailureDetail(int err)
{
    std::string detail = "perf_event_open failed: ";
    detail += std::strerror(err);
    if (err == ENOENT)
        detail += " (hardware events unsupported here — VM or "
                  "container without PMU access)";
    if (err == ENOSYS)
        detail += " (perf_event_open not implemented/allowed in "
                  "this kernel or sandbox)";
    if (err == EACCES || err == EPERM) {
        std::ifstream in("/proc/sys/kernel/perf_event_paranoid");
        std::string level;
        if (in && std::getline(in, level))
            detail += " (perf_event_paranoid=" + level + ")";
    }
    return detail;
}

#endif // __linux__

double
safeRatio(std::uint64_t numer, std::uint64_t denom)
{
    return denom == 0
               ? 0.0
               : static_cast<double>(numer) /
                     static_cast<double>(denom);
}

} // namespace

const char *
perfBackendName(PerfBackend backend)
{
    return backend == PerfBackend::Hardware ? "hardware"
                                            : "software";
}

void
PerfCounts::add(const PerfCounts &other)
{
    cycles += other.cycles;
    instructions += other.instructions;
    cacheReferences += other.cacheReferences;
    cacheMisses += other.cacheMisses;
    branchMisses += other.branchMisses;
    taskClockNs += other.taskClockNs;
    timeEnabledNs += other.timeEnabledNs;
    timeRunningNs += other.timeRunningNs;
    multiplexed = multiplexed || other.multiplexed;
}

PerfCounts
PerfCounts::since(const PerfCounts &start) const
{
    PerfCounts delta;
    delta.cycles = saturatingSub(cycles, start.cycles);
    delta.instructions =
        saturatingSub(instructions, start.instructions);
    delta.cacheReferences =
        saturatingSub(cacheReferences, start.cacheReferences);
    delta.cacheMisses = saturatingSub(cacheMisses, start.cacheMisses);
    delta.branchMisses =
        saturatingSub(branchMisses, start.branchMisses);
    delta.taskClockNs = saturatingSub(taskClockNs, start.taskClockNs);
    delta.timeEnabledNs =
        saturatingSub(timeEnabledNs, start.timeEnabledNs);
    delta.timeRunningNs =
        saturatingSub(timeRunningNs, start.timeRunningNs);
    delta.multiplexed = multiplexed || start.multiplexed;
    return delta;
}

double
PerfCounts::ipc() const
{
    return safeRatio(instructions, cycles);
}

double
PerfCounts::cacheMissRate() const
{
    return safeRatio(cacheMisses, cacheReferences);
}

double
PerfCounts::branchMissRate() const
{
    return safeRatio(branchMisses, instructions);
}

PerfCounterGroup::PerfCounterGroup(PerfBackend backend)
    : backend_(backend)
{
#if defined(__linux__)
    if (backend_ == PerfBackend::Hardware) {
        for (const EventSpec &spec : kEvents) {
            const int fd = openPerfEvent(spec, leaderFd_);
            if (fd < 0) {
                if (leaderFd_ == -1) {
                    // Capture errno before anything else (clock
                    // reads, vector ops) can clobber it; probe()
                    // reports this, not the global errno.
                    openErrno_ = errno;
                    break; // no leader, no group
                }
                // A missing sibling (ENOENT on unusual PMUs) is
                // tolerable: that counter just reads 0.
                continue;
            }
            if (leaderFd_ == -1)
                leaderFd_ = fd;
            fds_.push_back(fd);
            slots_.push_back(spec.slot);
        }
        if (leaderFd_ >= 0) {
            counters_ = static_cast<int>(fds_.size());
            ioctl(leaderFd_, PERF_EVENT_IOC_RESET,
                  PERF_IOC_FLAG_GROUP);
            ioctl(leaderFd_, PERF_EVENT_IOC_ENABLE,
                  PERF_IOC_FLAG_GROUP);
            return;
        }
        backend_ = PerfBackend::Software;
    }
#else
    backend_ = PerfBackend::Software;
#endif
    softwareEpochNs_ = monotonicNowNs();
}

PerfCounterGroup::~PerfCounterGroup()
{
#if defined(__linux__)
    for (const int fd : fds_)
        close(fd);
#endif
}

PerfCounts
PerfCounterGroup::read() const
{
    PerfCounts counts;
#if defined(__linux__)
    if (backend_ == PerfBackend::Hardware) {
        // Group read layout with PERF_FORMAT_GROUP | TOTAL_TIME_*:
        // { u64 nr; u64 time_enabled; u64 time_running;
        //   u64 values[nr]; } in open order.
        std::uint64_t buf[3 + std::size(kEvents)] = {};
        const ssize_t n = ::read(leaderFd_, buf, sizeof buf);
        if (n < static_cast<ssize_t>(3 * sizeof(std::uint64_t)))
            return counts;
        const std::uint64_t nr = buf[0];
        const std::uint64_t enabled = buf[1];
        const std::uint64_t running = buf[2];
        counts.timeEnabledNs = enabled;
        counts.timeRunningNs = running;
        counts.multiplexed = running < enabled;
        // The standard multiplexing correction: inflate each value
        // by enabled/running to estimate the full-schedule count.
        const double scale =
            (running > 0 && running < enabled)
                ? static_cast<double>(enabled) /
                      static_cast<double>(running)
                : 1.0;
        std::uint64_t *const slot[] = {
            &counts.cycles,          &counts.instructions,
            &counts.cacheReferences, &counts.cacheMisses,
            &counts.branchMisses,    &counts.taskClockNs,
        };
        for (std::uint64_t i = 0;
             i < nr && i < slots_.size(); ++i) {
            const std::uint64_t raw = buf[3 + i];
            const std::uint64_t scaled =
                scale == 1.0
                    ? raw
                    : static_cast<std::uint64_t>(
                          static_cast<double>(raw) * scale);
            *slot[slots_[i]] = scaled;
        }
        return counts;
    }
#endif
    const std::uint64_t elapsed =
        saturatingSub(monotonicNowNs(), softwareEpochNs_);
    counts.taskClockNs = threadCpuNowNs();
    counts.timeEnabledNs = elapsed;
    counts.timeRunningNs = elapsed;
    return counts;
}

PerfCapability
PerfCounterGroup::probe()
{
    PerfCapability cap;
#if defined(__linux__)
    PerfCounterGroup group(PerfBackend::Hardware);
    if (group.backend() == PerfBackend::Hardware) {
        cap.hardware = true;
        cap.counters = group.counterCount();
        cap.detail = "ok";
        return cap;
    }
    cap.detail = openFailureDetail(group.openErrno_);
#else
    cap.detail = "perf_event_open unavailable (not Linux)";
#endif
    return cap;
}

PerfProfiler::PerfProfiler()
    : generation_(
          gProfilerGeneration.fetch_add(1,
                                        std::memory_order_relaxed) +
          1)
{
    capability_ = PerfCounterGroup::probe();
    backend_ = capability_.hardware ? PerfBackend::Hardware
                                    : PerfBackend::Software;
    detail_ = capability_.hardware ? "ok" : capability_.detail;

    if (const char *env = std::getenv("PCAP_PERF_BACKEND")) {
        const std::string mode = env;
        if (mode == "software") {
            backend_ = PerfBackend::Software;
            detail_ = "forced by PCAP_PERF_BACKEND=software";
        } else if (mode == "hardware") {
            if (capability_.hardware) {
                backend_ = PerfBackend::Hardware;
                detail_ = "forced by PCAP_PERF_BACKEND=hardware";
            } else {
                // The request cannot be honored without a working
                // probe: fall back to software, but say what was
                // asked for and why it failed.
                backend_ = PerfBackend::Software;
                detail_ = "PCAP_PERF_BACKEND=hardware requested "
                          "but probe failed: " +
                          capability_.detail;
            }
        } else if (mode != "auto" && !mode.empty()) {
            warn("unknown PCAP_PERF_BACKEND value \"" + mode +
                 "\" (want auto|hardware|software); using " +
                 perfBackendName(backend_));
        }
    }
}

PerfCounterGroup &
PerfProfiler::threadGroup()
{
    if (tSlot.owner != generation_) {
        std::lock_guard<std::mutex> lock(mutex_);
        auto group = std::make_unique<PerfCounterGroup>(backend_);
        tSlot.owner = generation_;
        tSlot.group = group.get();
        groups_.push_back(std::move(group));
    }
    return *static_cast<PerfCounterGroup *>(tSlot.group);
}

PerfCounts
PerfProfiler::snapshot()
{
    return threadGroup().read();
}

void
PerfProfiler::accumulate(std::string_view region,
                         const PerfCounts &delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &entry : regions_) {
        if (entry.first == region) {
            entry.second.add(delta);
            return;
        }
    }
    regions_.emplace_back(region, delta);
}

std::vector<std::pair<std::string, PerfCounts>>
PerfProfiler::regions() const
{
    std::vector<std::pair<std::string, PerfCounts>> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out = regions_;
    }
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    return out;
}

void
setPerfProfiler(PerfProfiler *profiler)
{
    gProfiler.store(profiler, std::memory_order_release);
}

PerfProfiler *
perfProfiler()
{
    return gProfiler.load(std::memory_order_acquire);
}

bool
perfEnabled()
{
    return perfProfiler() != nullptr;
}

Json
perfCountsJson(const PerfCounts &counts)
{
    Json obj = Json::object();
    obj["cycles"] = counts.cycles;
    obj["instructions"] = counts.instructions;
    obj["cache_references"] = counts.cacheReferences;
    obj["cache_misses"] = counts.cacheMisses;
    obj["branch_misses"] = counts.branchMisses;
    obj["task_clock_ns"] = counts.taskClockNs;
    obj["time_enabled_ns"] = counts.timeEnabledNs;
    obj["time_running_ns"] = counts.timeRunningNs;
    obj["multiplexed"] = counts.multiplexed;
    obj["ipc"] = counts.ipc();
    obj["cache_miss_rate"] = counts.cacheMissRate();
    obj["branch_miss_rate"] = counts.branchMissRate();
    return obj;
}

Json
perfToJson(const PerfProfiler &profiler)
{
    Json block = Json::object();
    block["schema"] = "pcap-perf-v1";
    block["backend"] = perfBackendName(profiler.backend());
    block["detail"] = profiler.backendDetail();

    bool multiplexed = false;
    Json regions = Json::array();
    for (const auto &[name, counts] : profiler.regions()) {
        Json entry = perfCountsJson(counts);
        // Region name leads; rebuild with it first so the rendered
        // JSON reads name-then-numbers.
        Json named = Json::object();
        named["region"] = name;
        for (const std::string &key : entry.keys())
            named[key] = *entry.find(key);
        regions.push(std::move(named));
        multiplexed = multiplexed || counts.multiplexed;
    }
    block["multiplexed"] = multiplexed;
    block["regions"] = std::move(regions);
    return block;
}

void
recordPerfMetrics(const PerfProfiler &profiler,
                  MetricsRegistry &registry)
{
    registry.describe("pcap_perf_cycles_total",
                      "CPU cycles per measured perf region "
                      "(multiplexing-scaled).");
    registry.describe("pcap_perf_instructions_total",
                      "Retired instructions per measured perf "
                      "region.");
    registry.describe("pcap_perf_cache_references_total",
                      "Cache references per measured perf region.");
    registry.describe("pcap_perf_cache_misses_total",
                      "Cache misses per measured perf region.");
    registry.describe("pcap_perf_branch_misses_total",
                      "Branch misses per measured perf region.");
    registry.describe("pcap_perf_task_clock_seconds",
                      "Task-clock CPU time per measured perf "
                      "region.");
    registry.describe("pcap_perf_ipc",
                      "Instructions per cycle per measured perf "
                      "region.");
    registry.describe("pcap_perf_time_running_ratio",
                      "Fraction of enabled time the counter group "
                      "owned the PMU (1.0 = never multiplexed).");

    for (const auto &[name, counts] : profiler.regions()) {
        const Labels labels = {{"region", name}};
        registry.counter("pcap_perf_cycles_total", labels)
            .inc(counts.cycles);
        registry.counter("pcap_perf_instructions_total", labels)
            .inc(counts.instructions);
        registry.counter("pcap_perf_cache_references_total", labels)
            .inc(counts.cacheReferences);
        registry.counter("pcap_perf_cache_misses_total", labels)
            .inc(counts.cacheMisses);
        registry.counter("pcap_perf_branch_misses_total", labels)
            .inc(counts.branchMisses);
        registry.gauge("pcap_perf_task_clock_seconds", labels)
            .set(static_cast<double>(counts.taskClockNs) * 1e-9);
        registry.gauge("pcap_perf_ipc", labels).set(counts.ipc());
        registry.gauge("pcap_perf_time_running_ratio", labels)
            .set(counts.timeEnabledNs == 0
                     ? 1.0
                     : static_cast<double>(counts.timeRunningNs) /
                           static_cast<double>(
                               counts.timeEnabledNs));
    }
}

} // namespace pcap::obs
