/**
 * @file
 * Hardware-counter self-profiling (`perf_event_open`).
 *
 * Spans (tracing.hpp) resolve *where wall time goes*; this layer
 * resolves *how the hardware executes it*: cycles, instructions,
 * cache and branch behaviour per measured region (every obs::Span,
 * aggregated under its name while a profiler is installed), so a
 * "2.2 ns/period" claim carries IPC and miss-rate evidence instead
 * of a wall clock alone — and the exact counter plumbing a
 * live-mode PC collector will reuse.
 *
 * One PerfCounterGroup opens a *grouped* set of counters for the
 * calling thread — cycles (leader), instructions, cache
 * references/misses, branch misses, task clock — scheduled onto the
 * PMU together so their ratios (IPC, miss rates) are coherent. When
 * the kernel multiplexes the group off the PMU, readings are scaled
 * by time_enabled/time_running, the standard correction, and the
 * reading is marked `multiplexed`.
 *
 * The layer is opt-in (bench_all --perf) and degrades gracefully:
 * where perf_event_open is unavailable (EACCES under
 * perf_event_paranoid, ENOSYS in seccomp'd containers, non-Linux) a
 * software backend with the identical API reports task-clock from
 * thread CPU time (getrusage/clock_gettime) and zeroed hardware
 * counters, explicitly marked `backend: "software"` — a CI container
 * without PMU access stays green and honest. PCAP_PERF_BACKEND
 * (auto|hardware|software) overrides the probe.
 */

#ifndef PCAP_OBS_PERF_HPP
#define PCAP_OBS_PERF_HPP

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pcap {
class Json;
}

namespace pcap::obs {

class MetricsRegistry;

/** Which implementation services counter reads. */
enum class PerfBackend
{
    Hardware, ///< grouped perf_event_open counters
    Software  ///< thread CPU time + monotonic clock, zeroed PMU
};

/** "hardware" / "software". */
const char *perfBackendName(PerfBackend backend);

/**
 * Multiplexing-corrected counter totals (or a delta of two
 * readings). All counts are u64 and saturate at 0 on subtraction —
 * scaling rounds, so a tiny negative delta means "no progress", not
 * a wrapped astronomically-large one.
 */
struct PerfCounts
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cacheReferences = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t branchMisses = 0;
    std::uint64_t taskClockNs = 0;

    /** Raw group scheduling times behind the scaling. Equal when the
     * group owned the PMU for its whole enabled life. */
    std::uint64_t timeEnabledNs = 0;
    std::uint64_t timeRunningNs = 0;

    /** True when time_running < time_enabled, i.e. the values above
     * are scaled estimates rather than exact counts. */
    bool multiplexed = false;

    void add(const PerfCounts &other);

    /** this - start, elementwise saturating; multiplexed ORs. */
    PerfCounts since(const PerfCounts &start) const;

    double ipc() const;           ///< instructions / cycles (0 safe)
    double cacheMissRate() const; ///< misses / references (0 safe)
    double branchMissRate() const; ///< misses / instructions
};

/** What probing perf_event_open on this host found. */
struct PerfCapability
{
    bool hardware = false; ///< a grouped open succeeded
    int counters = 0;      ///< counters the group admitted
    std::string detail;    ///< "ok" or the errno-level reason
};

/**
 * A grouped set of per-thread counters. Construction opens (and
 * enables) the group for the *calling thread*; read() may then be
 * called from that thread only. A Hardware request that cannot open
 * even the group leader silently degrades to the Software backend —
 * check backend() for what you actually got.
 */
class PerfCounterGroup
{
  public:
    explicit PerfCounterGroup(PerfBackend backend);
    ~PerfCounterGroup();

    PerfCounterGroup(const PerfCounterGroup &) = delete;
    PerfCounterGroup &operator=(const PerfCounterGroup &) = delete;

    PerfBackend backend() const { return backend_; }

    /** Counters the hardware group admitted (0 for software). */
    int counterCount() const { return counters_; }

    /** Scaled totals since the group was opened. */
    PerfCounts read() const;

    /** Probe: can a hardware group open on this thread right now?
     * Opens and immediately closes a full group; never throws. */
    static PerfCapability probe();

  private:
    PerfBackend backend_;
    int counters_ = 0;
    int leaderFd_ = -1;
    /** Sibling fds in open order; slots_[i] maps the i-th group
     * value to its PerfCounts field. */
    std::vector<int> fds_;
    std::vector<int> slots_;
    /** errno captured immediately after a failed leader open (0 when
     * the group opened); probe() reports it instead of the global
     * errno, which later calls may have clobbered. */
    int openErrno_ = 0;
    std::uint64_t softwareEpochNs_ = 0; ///< monotonic, software only
};

/**
 * Process-wide profiler: owns one lazily-opened PerfCounterGroup per
 * thread (registration takes a mutex once per thread, reads are
 * thread-local) and accumulates named region deltas. Install via
 * setPerfProfiler; every obs::Span (tracing.hpp) picks it up.
 */
class PerfProfiler
{
  public:
    /** Probes, applies the PCAP_PERF_BACKEND override, and fixes
     * the backend for every group this profiler opens. */
    PerfProfiler();

    PerfBackend backend() const { return backend_; }
    const PerfCapability &capability() const { return capability_; }

    /** Why this backend: "ok", the probe failure, or the override. */
    const std::string &backendDetail() const { return detail_; }

    /** Scaled totals of the calling thread's group (opened on first
     * use). */
    PerfCounts snapshot();

    /** Fold @p delta into the named region aggregate. */
    void accumulate(std::string_view region, const PerfCounts &delta);

    /** All named region aggregates, sorted by name. */
    std::vector<std::pair<std::string, PerfCounts>> regions() const;

  private:
    PerfCounterGroup &threadGroup();

    /** Process-unique id keying per-thread group slots. Slots must
     * not key on the profiler's address: successive stack-local
     * profilers reuse it, and a stale slot would hand the new
     * profiler a freed group. */
    const std::uint64_t generation_;
    PerfBackend backend_;
    PerfCapability capability_;
    std::string detail_;
    mutable std::mutex mutex_; ///< groups_ registration + regions_
    std::vector<std::unique_ptr<PerfCounterGroup>> groups_;
    std::vector<std::pair<std::string, PerfCounts>> regions_;
};

/** Install @p profiler as the process-wide counter sink (nullptr
 * disables). Not owned; must outlive every span started while
 * installed. */
void setPerfProfiler(PerfProfiler *profiler);

/** The installed profiler, or nullptr when profiling is off. */
PerfProfiler *perfProfiler();

/** True when a profiler is installed. */
bool perfEnabled();

/** One reading as a JSON object — the shared shape of the
 * pcap-perf-v1 block, drill-down policies and tests (identical for
 * both backends by construction). */
Json perfCountsJson(const PerfCounts &counts);

/** The pcap-perf-v1 block: backend, probe detail, named regions. */
Json perfToJson(const PerfProfiler &profiler);

/** Record pcap_perf_* series (one set per region, labelled
 * {region}). Wall-dependent like every hardware number, so
 * metrics_diff ignores the family by default. */
void recordPerfMetrics(const PerfProfiler &profiler,
                       MetricsRegistry &registry);

} // namespace pcap::obs

#endif // PCAP_OBS_PERF_HPP
