#include "sim/input.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "util/logging.hpp"

namespace pcap::sim {

ExecutionInput
ExecutionInput::fromTrace(const trace::Trace &trace,
                          const cache::CacheParams &params)
{
    const std::string problem = trace.validate();
    if (!problem.empty()) {
        panic("ExecutionInput: invalid trace for " + trace.app() +
              " execution " +
              std::to_string(trace.execution()) + ": " + problem);
    }

    ExecutionInput input;
    input.app = trace.app();
    input.execution = trace.execution();
    input.endTime = trace.endTime();
    input.tracedIos = trace.ioCount();
    input.accesses =
        cache::filterTrace(trace, params, &input.cacheStats);

    // Extract process spans from the fork/exit events. The initial
    // process is the pid of the first event.
    std::map<Pid, ProcessSpan> spans;
    bool first = true;
    for (const auto &event : trace.events()) {
        if (first) {
            spans[event.pid] =
                ProcessSpan{event.pid, event.time, event.time};
            first = false;
        }
        switch (event.type) {
          case trace::EventType::Fork: {
            const Pid child = static_cast<Pid>(event.fd);
            spans[child] = ProcessSpan{child, event.time, event.time};
            break;
          }
          case trace::EventType::Exit:
            spans[event.pid].end = event.time;
            break;
          default:
            break;
        }
    }

    // The flush daemon lives for the whole execution.
    spans[kFlushDaemonPid] =
        ProcessSpan{kFlushDaemonPid, 0, input.endTime};

    for (const auto &[pid, span] : spans)
        input.processes.push_back(span);
    input.finalize();
    return input;
}

void
ExecutionInput::finalize()
{
    // Lifecycle events: two per process, few enough to sort.
    std::vector<SimEvent> lifecycle;
    lifecycle.reserve(2 * processes.size());
    for (const auto &span : processes) {
        lifecycle.push_back(
            {span.start, SimEventKind::ProcessStart, span.pid, 0});
        lifecycle.push_back(
            {span.end, SimEventKind::ProcessExit, span.pid, 0});
    }
    std::sort(lifecycle.begin(), lifecycle.end());

    // Merge them into the time-sorted accesses one equal-time run at
    // a time. Starts at a run's time order before its accesses and
    // exits after them (SimEventKind order), and sorting each run by
    // (pid, index) completes the SimEvent order, so the schedule
    // equals a full sort without paying for one.
    const std::size_t count = accesses.size();
    simEvents_.clear();
    simEvents_.reserve(count + lifecycle.size());
    auto next_lifecycle = lifecycle.cbegin();
    for (std::size_t run = 0; run < count;) {
        const TimeUs time = accesses[run].time;
        std::size_t run_end = run + 1;
        while (run_end < count && accesses[run_end].time == time)
            ++run_end;
        if (run_end < count && accesses[run_end].time < time) {
            panic("ExecutionInput: accesses of " + app +
                  " execution " + std::to_string(execution) +
                  " out of time order at index " +
                  std::to_string(run_end));
        }
        while (next_lifecycle != lifecycle.cend() &&
               (next_lifecycle->time < time ||
                (next_lifecycle->time == time &&
                 next_lifecycle->kind == SimEventKind::ProcessStart)))
            simEvents_.push_back(*next_lifecycle++);
        const std::size_t first = simEvents_.size();
        for (std::size_t i = run; i < run_end; ++i) {
            simEvents_.push_back(
                {time, SimEventKind::Access, accesses[i].pid, i});
        }
        if (run_end - run > 1)
            std::sort(simEvents_.begin() +
                          static_cast<std::ptrdiff_t>(first),
                      simEvents_.end());
        run = run_end;
    }
    simEvents_.insert(simEvents_.end(), next_lifecycle,
                      lifecycle.cend());
    finalized_ = true;
}

void
ExecutionInput::ensureFinalized() const
{
    if (!finalized_)
        const_cast<ExecutionInput *>(this)->finalize();
}

const ProcessSpan &
ExecutionInput::spanOf(Pid pid) const
{
    for (const auto &span : processes) {
        if (span.pid == pid)
            return span;
    }
    panic("ExecutionInput: unknown pid " + std::to_string(pid));
}

std::uint64_t
ExecutionInput::countGlobalOpportunities(TimeUs breakeven) const
{
    std::uint64_t count = 0;
    TimeUs prev = -1;
    for (const auto &access : accesses) {
        if (prev >= 0 && access.time - prev > breakeven)
            ++count;
        prev = access.time;
    }
    if (prev >= 0 && endTime - prev > breakeven)
        ++count;
    return count;
}

std::uint64_t
ExecutionInput::countLocalOpportunities(TimeUs breakeven) const
{
    // One pass over the merged stream, tracking each process's
    // previous access; accesses of pids without a span are ignored.
    std::unordered_map<Pid, TimeUs> prev;
    for (const auto &span : processes)
        prev.emplace(span.pid, -1);
    std::uint64_t count = 0;
    for (const auto &access : accesses) {
        const auto it = prev.find(access.pid);
        if (it == prev.end())
            continue;
        if (it->second >= 0 && access.time - it->second > breakeven)
            ++count;
        it->second = access.time;
    }
    for (const auto &span : processes) {
        const TimeUs last = prev.at(span.pid);
        if (last >= 0 && span.end - last > breakeven)
            ++count;
    }
    return count;
}

bool
ExecutionInput::sameContentAs(const ExecutionInput &other) const
{
    return app == other.app && execution == other.execution &&
           endTime == other.endTime &&
           tracedIos == other.tracedIos &&
           cacheStats == other.cacheStats &&
           accesses == other.accesses &&
           processes == other.processes;
}

} // namespace pcap::sim
