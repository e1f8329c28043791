#include "trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

namespace pcap::trace {

void
Trace::sortByTime()
{
    // Natural merge sort. Workload builders append events almost in
    // time order (one to three ascending runs per execution of the
    // six app models); find the runs, then merge neighbouring runs
    // pairwise until one is left.
    // Merging only neighbours, and taking from the left run on ties,
    // keeps equal events in input order: the result is exactly
    // std::stable_sort's.
    std::vector<std::size_t> bounds{0};
    for (std::size_t i = 1; i < events_.size(); ++i) {
        if (events_[i] < events_[i - 1])
            bounds.push_back(i);
    }
    bounds.push_back(events_.size());
    if (bounds.size() <= 2)
        return;

    const auto at = [](std::vector<TraceEvent> &events, std::size_t i) {
        return events.begin() + static_cast<std::ptrdiff_t>(i);
    };
    std::vector<TraceEvent> buffer(events_.size());
    std::vector<std::size_t> merged;
    while (bounds.size() > 2) {
        merged.assign(1, 0);
        std::size_t run = 0;
        for (; run + 2 < bounds.size(); run += 2) {
            std::merge(at(events_, bounds[run]),
                       at(events_, bounds[run + 1]),
                       at(events_, bounds[run + 1]),
                       at(events_, bounds[run + 2]),
                       at(buffer, bounds[run]));
            merged.push_back(bounds[run + 2]);
        }
        if (run + 1 < bounds.size()) {
            // An odd run out carries over unmerged.
            std::copy(at(events_, bounds[run]), events_.end(),
                      at(buffer, bounds[run]));
            merged.push_back(bounds[run + 1]);
        }
        events_.swap(buffer);
        bounds.swap(merged);
    }
}

void
Trace::scaleTimes(double scale)
{
    if (scale == 1.0)
        return;
    for (TraceEvent &event : events_) {
        event.time = static_cast<TimeUs>(
            std::llround(static_cast<double>(event.time) * scale));
    }
}

std::size_t
Trace::ioCount() const
{
    std::size_t count = 0;
    for (const auto &event : events_) {
        if (isIoEvent(event.type))
            ++count;
    }
    return count;
}

std::vector<Pid>
Trace::pids() const
{
    std::set<Pid> seen;
    for (const auto &event : events_) {
        seen.insert(event.pid);
        if (event.type == EventType::Fork)
            seen.insert(static_cast<Pid>(event.fd));
    }
    return {seen.begin(), seen.end()};
}

std::vector<TraceEvent>
Trace::eventsOf(Pid pid) const
{
    std::vector<TraceEvent> result;
    for (const auto &event : events_) {
        if (event.pid == pid)
            result.push_back(event);
    }
    return result;
}

TimeUs
Trace::startTime() const
{
    return events_.empty() ? 0 : events_.front().time;
}

TimeUs
Trace::endTime() const
{
    return events_.empty() ? 0 : events_.back().time;
}

std::string
Trace::validate() const
{
    std::ostringstream error;

    TimeUs last_time = 0;
    bool first = true;
    // The initial process of the execution is the pid of the first
    // event; every other pid must be introduced by a Fork.
    std::set<Pid> live;
    std::set<Pid> exited;

    for (std::size_t i = 0; i < events_.size(); ++i) {
        const TraceEvent &event = events_[i];

        if (!first && event.time < last_time) {
            error << "event " << i << " out of order: " << event.time
                  << " < " << last_time;
            return error.str();
        }
        last_time = event.time;

        if (first) {
            live.insert(event.pid);
            first = false;
        }

        if (!live.count(event.pid)) {
            if (exited.count(event.pid)) {
                error << "event " << i << ": pid " << event.pid
                      << " acts after exit";
            } else {
                error << "event " << i << ": pid " << event.pid
                      << " acts before being forked";
            }
            return error.str();
        }

        switch (event.type) {
          case EventType::Fork: {
            const Pid child = static_cast<Pid>(event.fd);
            if (live.count(child) || exited.count(child)) {
                error << "event " << i << ": fork of existing pid "
                      << child;
                return error.str();
            }
            live.insert(child);
            break;
          }
          case EventType::Exit:
            live.erase(event.pid);
            exited.insert(event.pid);
            break;
          default:
            break;
        }
    }

    if (!events_.empty() && !live.empty()) {
        error << live.size() << " process(es) never exit";
        return error.str();
    }

    return {};
}

} // namespace pcap::trace
