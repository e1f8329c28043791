/**
 * @file
 * Simulator input: one execution of one application after the
 * file-cache filter — the disk access stream, the process lifetimes
 * (from the traced fork/exit events) and the pdflush pseudo-process.
 *
 * An ExecutionInput is immutable once built, and the same input is
 * replayed by dozens of policy runs per bench invocation. It
 * therefore precomputes everything a replay needs that depends only
 * on the input: the merged, time-sorted event list the global
 * simulation walks.
 */

#ifndef PCAP_SIM_INPUT_HPP
#define PCAP_SIM_INPUT_HPP

#include <string>
#include <vector>

#include "cache/file_cache.hpp"
#include "trace/event.hpp"
#include "trace/trace.hpp"
#include "util/types.hpp"

namespace pcap::sim {

/** Lifetime of one process within an execution. */
struct ProcessSpan
{
    Pid pid = 0;
    TimeUs start = 0;
    TimeUs end = 0;

    bool operator==(const ProcessSpan &other) const = default;
};

/** Event kinds of the global replay, in same-time order. */
enum class SimEventKind : std::uint8_t {
    ProcessStart = 0,
    Access = 1,
    ProcessExit = 2,
};

/** One entry of the precomputed merged replay schedule. */
struct SimEvent
{
    TimeUs time = 0;
    SimEventKind kind = SimEventKind::Access;
    Pid pid = 0;
    std::size_t accessIndex = 0; ///< into ExecutionInput::accesses

    /** Total order of the schedule: time, kind, pid, then the
     * access's index in the stream (0 for lifecycle events). */
    bool operator<(const SimEvent &other) const
    {
        if (time != other.time)
            return time < other.time;
        if (kind != other.kind)
            return static_cast<int>(kind) <
                   static_cast<int>(other.kind);
        if (pid != other.pid)
            return pid < other.pid;
        return accessIndex < other.accessIndex;
    }
};

/**
 * Everything the simulator needs about one execution: the post-cache
 * disk access stream (time-sorted), the process spans — including
 * the flush daemon, which lives for the whole execution — and trace
 * metadata.
 */
struct ExecutionInput
{
    std::string app;
    int execution = 0;
    std::vector<trace::DiskAccess> accesses;
    std::vector<ProcessSpan> processes;
    TimeUs endTime = 0;
    std::uint64_t tracedIos = 0;    ///< pre-cache I/O count (Table 1)
    cache::CacheStats cacheStats;

    /**
     * Build from a validated trace: filter through a cold file cache
     * and extract the process spans. panic()s on an invalid trace —
     * workload models must produce structurally valid ones.
     */
    static ExecutionInput fromTrace(const trace::Trace &trace,
                                    const cache::CacheParams &params);

    /**
     * Rebuild the derived read-only index (the merged event
     * schedule) from the primary fields above.
     * The schedule is every event in SimEvent order, built in linear
     * time: equal-time runs of accesses are ordered by pid and the
     * sorted lifecycle events are merged in. accesses must be in
     * time order — an input invariant that fromTrace() and the
     * deserializer guarantee; finalize() panics otherwise.
     * fromTrace() and the deserializer call this; inputs assembled
     * by hand (tests) are finalized lazily on first derived access.
     * Lazy finalization is not thread-safe — finalize before
     * sharing an input across threads (the library paths all do).
     */
    void finalize();

    /** The merged time-sorted replay schedule (see finalize()). */
    const std::vector<SimEvent> &simEvents() const
    {
        ensureFinalized();
        return simEvents_;
    }

    /** Span of one process; panics when the pid is unknown. */
    const ProcessSpan &spanOf(Pid pid) const;

    /**
     * Idle periods longer than @p breakeven on the merged stream,
     * including the trailing period to endTime — Table 1's "Global"
     * idle-period count for this execution.
     */
    std::uint64_t countGlobalOpportunities(TimeUs breakeven) const;

    /**
     * Sum over all predicting processes — the application's and the
     * flush daemon — of their idle periods longer than
     * @p breakeven, including each process's trailing period to its
     * exit: Table 1's "Local" count. The flush daemon counts
     * because it runs a local predictor like any process; this also
     * preserves Table 1's local >= global invariant, since the
     * daemon's accesses split global periods.
     */
    std::uint64_t countLocalOpportunities(TimeUs breakeven) const;

    /** Primary-field equality (the derived schedule is excluded). */
    bool sameContentAs(const ExecutionInput &other) const;

  private:
    void ensureFinalized() const;

    mutable std::vector<SimEvent> simEvents_;
    mutable bool finalized_ = false;
};

} // namespace pcap::sim

#endif // PCAP_SIM_INPUT_HPP
