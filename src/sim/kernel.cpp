#include "sim/kernel.hpp"

#include "sim/execution_source.hpp"

#include <algorithm>

namespace pcap::sim {

void
RunResult::merge(const RunResult &other)
{
    accuracy.merge(other.accuracy);
    energy.merge(other.energy);
    shutdowns += other.shutdowns;
    spinUps += other.spinUps;
    ignoredShutdowns += other.ignoredShutdowns;
    totalSpinUpDelay += other.totalSpinUpDelay;
}

void
IdleSink::emit(Pid pid, TimeUs gap_start, TimeUs gap_end,
               TimeUs shutdown_at, pred::DecisionSource source,
               IdleOutcome outcome)
{
    IdlePeriodRecord record;
    record.pid = pid;
    record.start = gap_start;
    record.end = gap_end;
    record.shutdownAt = shutdown_at;
    record.source = source;
    record.outcome = outcome;
    observer_.onIdlePeriod(record);
}

// -- PolicyDriver defaults -------------------------------------

void
PolicyDriver::processStart(Pid pid, TimeUs time)
{
    (void)pid;
    (void)time;
}

void
PolicyDriver::processExit(Pid pid, TimeUs time, IdleSink &sink)
{
    (void)pid;
    (void)time;
    (void)sink;
}

pred::ShutdownDecision
PolicyDriver::standingDecision() const
{
    return {kTimeNever, pred::DecisionSource::None};
}

bool
PolicyDriver::parkLowPower() const
{
    return false;
}

void
PolicyDriver::endExecution(const ExecutionInput &input,
                           IdleSink &sink)
{
    (void)input;
    (void)sink;
}

// -- SimulationKernel ------------------------------------------

RunResult
SimulationKernel::runExecution(const ExecutionInput &input,
                               PolicyDriver &driver)
{
    // The template parameter hoists every per-event observer
    // dispatch out of the replay loop: for an observer that needs
    // only totals the whole execution runs with instrumentation
    // compiled out.
    if (observer_.perEventCallbacks())
        return runExecution<true>(input, driver);
    return runExecution<false>(input, driver);
}

namespace {

/**
 * Finish @p disk at the execution's end and read its totals. A
 * diskless driver's disk was never used and idles throughout, so
 * residency partitions simulated time for every driver.
 */
ReplayTotals
finishDisk(power::PowerManagedDisk &disk, TimeUs endTime)
{
    disk.finish(endTime);
    ReplayTotals totals;
    totals.stateUs = disk.residencyUs();
    totals.stateTransitions = disk.transitionCount();
    totals.wakeUps = disk.wakeUpCount();
    return totals;
}

} // namespace

template <bool Instrumented>
RunResult
SimulationKernel::runExecution(const ExecutionInput &input,
                               PolicyDriver &driver)
{
    driver.beginExecution(input);
    observer_.onExecutionBegin(input);

    const bool with_disk = driver.usesDisk();
    const bool trace_order =
        driver.replayOrder() == ReplayOrder::Trace;

    // Uninstrumented replays drive a notification-free disk model;
    // every other observer call below is compiled out likewise.
    power::PowerManagedDisk disk(params_.disk,
                                 Instrumented ? &observer_ : nullptr);
    RunResult result;
    IdleSink sink(params_.breakeven(), result.accuracy, observer_);

    TimeUs gap_start = -1;  ///< arrival of the last access
    TimeUs seg_start = -1;  ///< earliest instant not yet checked
    TimeUs shutdown_at = -1;
    pred::DecisionSource shutdown_source = pred::DecisionSource::None;
    TimeUs last_completion = 0; ///< when the disk last went idle
    bool low_power_pending = false;
    std::size_t access_cursor = 0;

    // Issue the pending spin-down to the disk. The power manager's
    // order stands from shutdown_at on; if the disk is still busy
    // then (e.g. finishing a post-spin-up service), it spins down as
    // soon as it goes idle — provided that still happens before the
    // gap ends.
    auto issue_shutdown = [&](TimeUs gap_end) {
        if (low_power_pending) {
            // The prediction parked the disk in low-power mode as
            // soon as it went idle.
            const TimeUs at = std::max(last_completion, gap_start);
            if (at < gap_end)
                disk.enterLowPower(at);
            low_power_pending = false;
        }
        if (shutdown_at < 0)
            return;
        const TimeUs at = std::max(shutdown_at, last_completion);
        if (at >= gap_end || !disk.shutdown(at)) {
            ++result.ignoredShutdowns;
            if constexpr (Instrumented)
                observer_.onShutdownIgnored(at);
        } else {
            if constexpr (Instrumented)
                observer_.onShutdownIssued(at);
        }
    };

    // Decide whether the driver's standing decision fires a shutdown
    // inside [seg_start, until); constraints may have changed at
    // process starts/exits, so this runs before every event.
    auto check_shutdown = [&](TimeUs until) {
        if (gap_start < 0 || shutdown_at >= 0) {
            seg_start = until;
            return;
        }
        const pred::ShutdownDecision d = driver.standingDecision();
        if (d.earliest != kTimeNever) {
            const TimeUs candidate = std::max(d.earliest, seg_start);
            if (candidate < until) {
                shutdown_at = candidate;
                shutdown_source = d.source;
                if constexpr (Instrumented)
                    observer_.onShutdownLatched(candidate, d.source);
            }
        }
        seg_start = until;
    };

    // The merged schedule is precomputed once per input and shared
    // by every policy run replaying it (see ExecutionInput::finalize).
    for (const SimEvent &event : input.simEvents()) {
        if (with_disk)
            check_shutdown(event.time);
        switch (event.kind) {
          case SimEventKind::ProcessStart:
            driver.processStart(event.pid, event.time);
            break;
          case SimEventKind::ProcessExit:
            driver.processExit(event.pid, event.time, sink);
            break;
          case SimEventKind::Access: {
            // Trace-order drivers take the k-th access of the trace
            // at the k-th access event: both sequences are sorted by
            // time, so the substitution is time-identical — it only
            // restores the trace's relative order of equal-timestamp
            // accesses, which these modes historically replayed.
            const trace::DiskAccess &access =
                trace_order ? input.accesses[access_cursor]
                            : input.accesses[event.accessIndex];
            ++access_cursor;
            if (with_disk) {
                if (gap_start >= 0) {
                    sink.classify(kMergedStreamPid, gap_start,
                                  access.time, shutdown_at,
                                  shutdown_source);
                }
                issue_shutdown(access.time);
                last_completion =
                    disk.request(access.time, access.blocks);
            }
            driver.onAccess(access, last_completion, sink);
            low_power_pending = with_disk && driver.parkLowPower();
            gap_start = access.time;
            seg_start = access.time;
            shutdown_at = -1;
            shutdown_source = pred::DecisionSource::None;
            break;
          }
        }
    }

    if (with_disk) {
        // Trailing idle period to the end of the execution.
        check_shutdown(input.endTime);
        if (gap_start >= 0) {
            sink.classify(kMergedStreamPid, gap_start, input.endTime,
                          shutdown_at, shutdown_source);
            issue_shutdown(input.endTime);
        }
    }
    const ReplayTotals totals = finishDisk(disk, input.endTime);
    if (with_disk) {
        result.energy = disk.ledger();
        result.shutdowns = disk.shutdownCount();
        result.spinUps = disk.spinUpCount();
        result.totalSpinUpDelay = disk.totalSpinUpDelay();
    }
    driver.endExecution(input, sink);
    observer_.onExecutionEnd(input, result, totals);
    return result;
}

RunResult
SimulationKernel::run(const std::vector<ExecutionInput> &executions,
                      PolicyDriver &driver)
{
    MaterializedSource source(executions);
    return run(source, driver);
}

RunResult
SimulationKernel::run(ExecutionSource &source, PolicyDriver &driver)
{
    RunResult total;
    while (const ExecutionInput *input = source.next())
        total.merge(runExecution(*input, driver));
    return total;
}

} // namespace pcap::sim
