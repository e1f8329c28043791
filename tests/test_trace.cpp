/**
 * @file
 * Unit tests for the trace substrate: event schema, trace container,
 * structural validation and the lifecycle-enforcing builder.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "trace/builder.hpp"
#include "trace/event.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "workload/app_model.hpp"

namespace pcap::trace {
namespace {

TraceEvent
makeIo(TimeUs time, Pid pid, EventType type = EventType::Read,
       Address pc = 0x1000)
{
    TraceEvent event;
    event.time = time;
    event.pid = pid;
    event.type = type;
    event.pc = pc;
    return event;
}

TEST(EventType, NamesRoundTrip)
{
    for (EventType type :
         {EventType::Read, EventType::Write, EventType::Open,
          EventType::Close, EventType::Fork, EventType::Exit}) {
        EventType parsed;
        ASSERT_TRUE(parseEventType(eventTypeName(type), parsed));
        EXPECT_EQ(parsed, type);
    }
}

TEST(EventType, ParseRejectsUnknownNames)
{
    EventType parsed;
    EXPECT_FALSE(parseEventType("mmap", parsed));
    EXPECT_FALSE(parseEventType("", parsed));
    EXPECT_FALSE(parseEventType("READ", parsed));
}

TEST(EventType, IoClassification)
{
    EXPECT_TRUE(isIoEvent(EventType::Read));
    EXPECT_TRUE(isIoEvent(EventType::Write));
    EXPECT_TRUE(isIoEvent(EventType::Open));
    EXPECT_FALSE(isIoEvent(EventType::Close));
    EXPECT_FALSE(isIoEvent(EventType::Fork));
    EXPECT_FALSE(isIoEvent(EventType::Exit));
}

TEST(TraceEvent, OrdersByTimeThenPid)
{
    const TraceEvent a = makeIo(10, 2);
    const TraceEvent b = makeIo(20, 1);
    const TraceEvent c = makeIo(10, 1);
    EXPECT_LT(a, b);
    EXPECT_LT(c, a);
}

TEST(Trace, SortByTimeIsStable)
{
    Trace trace("app", 0);
    trace.append(makeIo(30, 1));
    trace.append(makeIo(10, 1));
    trace.append(makeIo(20, 1));
    trace.sortByTime();
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.events()[0].time, 10);
    EXPECT_EQ(trace.events()[2].time, 30);
}

/** sortByTime() on a copy of @p events must equal std::stable_sort
 * — element for element, so equal keys keep their input order. */
void
expectSortMatchesStableSort(const std::vector<TraceEvent> &events)
{
    Trace trace("app", 0);
    for (const TraceEvent &event : events)
        trace.append(event);
    trace.sortByTime();

    std::vector<TraceEvent> expected = events;
    std::stable_sort(expected.begin(), expected.end());
    ASSERT_EQ(trace.events(), expected);
}

TEST(Trace, SortByTimeEqualsStableSortOnRandomRuns)
{
    // Concatenated ascending runs of random length, over few
    // distinct (time, pid, type) keys so ties are common; the pc
    // tells equal-key events apart.
    Rng rng(1234);
    for (int round = 0; round < 200; ++round) {
        std::vector<TraceEvent> events;
        const auto runs = rng.uniformInt(1, 12);
        for (std::int64_t run = 0; run < runs; ++run) {
            TimeUs time = rng.uniformInt(0, 50);
            const auto length = rng.uniformInt(0, 40);
            for (std::int64_t i = 0; i < length; ++i) {
                time += rng.uniformInt(0, 3);
                events.push_back(makeIo(
                    time, static_cast<Pid>(rng.uniformInt(1, 3)),
                    static_cast<EventType>(rng.uniformInt(0, 5)),
                    static_cast<Address>(events.size())));
            }
        }
        // Some rounds shuffle outright: the merge must also cope
        // with many one-element runs.
        if (round % 10 == 0) {
            for (std::size_t i = events.size(); i > 1; --i) {
                std::swap(events[i - 1],
                          events[static_cast<std::size_t>(
                              rng.uniformInt(0, static_cast<std::int64_t>(
                                                    i - 1)))]);
            }
        }
        SCOPED_TRACE("round " + std::to_string(round));
        expectSortMatchesStableSort(events);
    }
}

TEST(Trace, SortByTimeEqualsStableSortOnAppModelRuns)
{
    // Every app model's first execution, regrouped into one
    // time-ordered run per process, the runs in pid order: more runs
    // than a builder leaves, over the models' real event mixes.
    for (const std::string &app : workload::standardAppNames()) {
        Rng rng = Rng(42 ^ hashString(app)).fork(0);
        const Trace generated = workload::makeApp(app)->generate(0, rng);
        std::map<Pid, std::vector<TraceEvent>> by_pid;
        for (const TraceEvent &event : generated.events())
            by_pid[event.pid].push_back(event);
        ASSERT_GT(by_pid.size(), 0u);
        std::vector<TraceEvent> runs;
        for (const auto &[pid, events] : by_pid)
            runs.insert(runs.end(), events.begin(), events.end());
        SCOPED_TRACE(app);
        expectSortMatchesStableSort(runs);
        // A sorted trace is one run and sorts to itself.
        expectSortMatchesStableSort(generated.events());
    }
}

TEST(Trace, IoCountIgnoresLifecycleAndClose)
{
    Trace trace("app", 0);
    trace.append(makeIo(1, 1, EventType::Open));
    trace.append(makeIo(2, 1, EventType::Read));
    trace.append(makeIo(3, 1, EventType::Write));
    trace.append(makeIo(4, 1, EventType::Close));
    trace.append(makeIo(5, 1, EventType::Exit));
    EXPECT_EQ(trace.ioCount(), 3u);
}

TEST(Trace, PidsIncludeForkedChildren)
{
    Trace trace("app", 0);
    trace.append(makeIo(1, 7));
    TraceEvent fork = makeIo(2, 7, EventType::Fork);
    fork.fd = 9;
    trace.append(fork);
    const auto pids = trace.pids();
    EXPECT_EQ(pids.size(), 2u);
    EXPECT_EQ(pids[0], 7);
    EXPECT_EQ(pids[1], 9);
}

TEST(Trace, EventsOfFiltersByPid)
{
    Trace trace("app", 0);
    trace.append(makeIo(1, 1));
    trace.append(makeIo(2, 2));
    trace.append(makeIo(3, 1));
    EXPECT_EQ(trace.eventsOf(1).size(), 2u);
    EXPECT_EQ(trace.eventsOf(2).size(), 1u);
    EXPECT_TRUE(trace.eventsOf(3).empty());
}

TEST(Trace, StartAndEndTimes)
{
    Trace trace("app", 0);
    EXPECT_EQ(trace.startTime(), 0);
    EXPECT_EQ(trace.endTime(), 0);
    trace.append(makeIo(5, 1));
    trace.append(makeIo(42, 1));
    EXPECT_EQ(trace.startTime(), 5);
    EXPECT_EQ(trace.endTime(), 42);
}

TEST(TraceValidate, AcceptsWellFormedTrace)
{
    TraceBuilder builder("app", 0, 1);
    builder.io(10, 1, EventType::Read, 0x1000, 3, 5, 0, 4096);
    builder.fork(20, 1, 2);
    builder.io(30, 2, EventType::Write, 0x2000, 4, 6, 0, 4096);
    builder.exit(40, 2);
    const Trace trace = builder.finish(50);
    EXPECT_EQ(trace.validate(), "");
}

TEST(TraceValidate, RejectsOutOfOrderEvents)
{
    Trace trace("app", 0);
    trace.append(makeIo(20, 1));
    trace.append(makeIo(10, 1));
    trace.append(makeIo(30, 1, EventType::Exit));
    EXPECT_NE(trace.validate().find("out of order"),
              std::string::npos);
}

TEST(TraceValidate, RejectsActionsFromUnknownPid)
{
    Trace trace("app", 0);
    trace.append(makeIo(10, 1));
    trace.append(makeIo(20, 2)); // pid 2 was never forked
    EXPECT_NE(trace.validate().find("before being forked"),
              std::string::npos);
}

TEST(TraceValidate, RejectsActionsAfterExit)
{
    Trace trace("app", 0);
    trace.append(makeIo(10, 1));
    trace.append(makeIo(20, 1, EventType::Exit));
    trace.append(makeIo(30, 1));
    EXPECT_NE(trace.validate().find("after exit"),
              std::string::npos);
}

TEST(TraceValidate, RejectsDoubleFork)
{
    Trace trace("app", 0);
    trace.append(makeIo(10, 1));
    TraceEvent fork = makeIo(20, 1, EventType::Fork);
    fork.fd = 1; // forking an existing pid
    trace.append(fork);
    EXPECT_NE(trace.validate().find("existing pid"),
              std::string::npos);
}

TEST(TraceValidate, RejectsProcessesThatNeverExit)
{
    Trace trace("app", 0);
    trace.append(makeIo(10, 1));
    EXPECT_NE(trace.validate().find("never exit"),
              std::string::npos);
}

TEST(TraceBuilder, FinishExitsAllLiveProcesses)
{
    TraceBuilder builder("app", 3, 1);
    builder.io(10, 1, EventType::Read, 0x1000, 3, 5, 0, 4096);
    builder.fork(20, 1, 2);
    EXPECT_TRUE(builder.isLive(2));
    const Trace trace = builder.finish(100);
    EXPECT_EQ(trace.validate(), "");
    EXPECT_EQ(trace.app(), "app");
    EXPECT_EQ(trace.execution(), 3);
    // Two exits must have been appended.
    std::size_t exits = 0;
    for (const auto &event : trace.events())
        exits += event.type == EventType::Exit;
    EXPECT_EQ(exits, 2u);
}

TEST(TraceBuilder, TracksLiveness)
{
    TraceBuilder builder("app", 0, 1);
    EXPECT_TRUE(builder.isLive(1));
    EXPECT_FALSE(builder.isLive(2));
    builder.fork(10, 1, 2);
    EXPECT_TRUE(builder.isLive(2));
    builder.exit(20, 2);
    EXPECT_FALSE(builder.isLive(2));
    EXPECT_EQ(builder.livePids().size(), 1u);
    (void)builder.finish(30);
}

TEST(TraceBuilderDeath, IoFromDeadPidPanics)
{
    TraceBuilder builder("app", 0, 1);
    builder.exit(10, 1);
    EXPECT_DEATH(builder.io(20, 1, EventType::Read, 0x1000, 3, 5, 0,
                            4096),
                 "non-live pid");
}

TEST(TraceBuilderDeath, ForkOfUsedPidPanics)
{
    TraceBuilder builder("app", 0, 1);
    EXPECT_DEATH(builder.fork(10, 1, 1), "already used");
}

TEST(TraceBuilderDeath, LifecycleViaIoPanics)
{
    TraceBuilder builder("app", 0, 1);
    EXPECT_DEATH(builder.io(10, 1, EventType::Fork, 0, 2, 0, 0, 0),
                 "lifecycle");
}

} // namespace
} // namespace pcap::trace
