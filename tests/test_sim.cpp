/**
 * @file
 * Simulator tests: execution-input construction, the idle-period
 * taxonomy, local and global runs on hand-built inputs, and the
 * base/ideal energy bounds.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "obs/metrics.hpp"
#include "sim/drivers.hpp"
#include "sim/execution_source.hpp"
#include "sim/input.hpp"
#include "sim/kernel.hpp"
#include "sim/trace_store.hpp"
#include "trace/builder.hpp"
#include "workload/app_model.hpp"
#include "workload/host_profile.hpp"

namespace pcap::sim {
namespace {

constexpr Pid kPidA = 100;
constexpr Pid kPidB = 101;

/** Input with a fully scripted access stream (no cache involved). */
ExecutionInput
scriptedInput(std::vector<trace::DiskAccess> accesses, TimeUs end)
{
    ExecutionInput input;
    input.app = "scripted";
    input.accesses = std::move(accesses);
    input.processes.push_back({kPidA, 0, end});
    input.processes.push_back({kFlushDaemonPid, 0, end});
    input.endTime = end;
    return input;
}

trace::DiskAccess
access(TimeUs time, Pid pid = kPidA, Address pc = 0x1000, Fd fd = 3)
{
    trace::DiskAccess a;
    a.time = time;
    a.pid = pid;
    a.pc = pc;
    a.fd = fd;
    a.blocks = 1;
    return a;
}

TEST(ExecutionInput, FromTraceExtractsSpansAndFlushDaemon)
{
    trace::TraceBuilder builder("app", 2, kPidA);
    builder.io(secondsUs(1), kPidA, trace::EventType::Read, 0x1000,
               3, 5, 0, 4096);
    builder.fork(secondsUs(2), kPidA, kPidB);
    builder.io(secondsUs(3), kPidB, trace::EventType::Read, 0x2000,
               4, 6, 0, 4096);
    builder.exit(secondsUs(4), kPidB);
    const trace::Trace trace = builder.finish(secondsUs(10));

    const ExecutionInput input =
        ExecutionInput::fromTrace(trace, cache::CacheParams{});
    EXPECT_EQ(input.app, "app");
    EXPECT_EQ(input.execution, 2);
    EXPECT_EQ(input.endTime, secondsUs(10));
    EXPECT_EQ(input.tracedIos, 2u);
    ASSERT_EQ(input.processes.size(), 3u); // A, B, flush daemon

    const ProcessSpan &daemon = input.spanOf(kFlushDaemonPid);
    EXPECT_EQ(daemon.start, 0);
    EXPECT_EQ(daemon.end, secondsUs(10));
    EXPECT_EQ(input.spanOf(kPidB).end, secondsUs(4));
    EXPECT_FALSE(input.accesses.empty());
}

TEST(ExecutionInput, OpportunityCountsIncludeTrailingGap)
{
    // Accesses at 0 and 10 s, end at 30 s: two global opportunities
    // (the 10 s gap and the 20 s trailing gap).
    ExecutionInput input = scriptedInput(
        {access(0), access(secondsUs(10))}, secondsUs(30));
    EXPECT_EQ(input.countGlobalOpportunities(secondsUs(5.43)), 2u);
    EXPECT_EQ(input.countLocalOpportunities(secondsUs(5.43)), 2u);
}

TEST(ExecutionInput, LocalCountsSumPerProcess)
{
    // Interleaved accesses: globally no gap exceeds 6 s, but each
    // process has a 12 s private gap.
    ExecutionInput input = scriptedInput(
        {access(0, kPidA), access(secondsUs(6), kPidB),
         access(secondsUs(12), kPidA), access(secondsUs(18), kPidB)},
        secondsUs(19));
    input.processes.clear();
    input.processes.push_back({kPidA, 0, secondsUs(19)});
    input.processes.push_back({kPidB, 0, secondsUs(19)});
    EXPECT_EQ(input.countGlobalOpportunities(secondsUs(10)), 0u);
    EXPECT_EQ(input.countLocalOpportunities(secondsUs(10)), 2u);

    // Trailing periods run to each process's own exit. A: accesses
    // at 0, 20 and 25 s, exit at 60 s: gaps 20, 5 and a trailing 35.
    // B: one access at 10 s, exit at 12 s: a trailing 2. An access
    // from a pid without a span counts for nobody.
    ExecutionInput spans;
    spans.app = "local";
    spans.accesses = {access(0, kPidA), access(secondsUs(10), kPidB),
                      access(secondsUs(20), kPidA),
                      access(secondsUs(25), kPidA),
                      access(secondsUs(30), 999)};
    spans.processes.push_back({kPidA, 0, secondsUs(60)});
    spans.processes.push_back({kPidB, 0, secondsUs(12)});
    spans.endTime = secondsUs(60);
    EXPECT_EQ(spans.countLocalOpportunities(secondsUs(8)), 2u);
    EXPECT_EQ(spans.countLocalOpportunities(secondsUs(4)), 3u);
    EXPECT_EQ(spans.countLocalOpportunities(secondsUs(1)), 4u);
}

TEST(RunLocal, TimeoutTaxonomyOnScriptedGaps)
{
    // Gaps after the accesses: 20 s (TP hit: off = 10 s), 12 s (TP
    // miss: off = 2 s < breakeven), 8 s (not predicted: timer never
    // expires... 8 < 10), 3 s (nothing: not an opportunity, no
    // shutdown because the timer does not expire), trailing 30 s
    // (hit).
    std::vector<trace::DiskAccess> accesses = {
        access(0),
        access(secondsUs(20)),
        access(secondsUs(32)),
        access(secondsUs(40)),
        access(secondsUs(43)),
    };
    ExecutionInput input =
        scriptedInput(std::move(accesses), secondsUs(73));

    PolicySession session(PolicyConfig::timeoutPolicy());
    LocalDriver driver(session);
    const AccuracyStats stats =
        SimulationKernel(SimParams{}).run({input}, driver).accuracy;

    EXPECT_EQ(stats.opportunities, 4u);
    EXPECT_EQ(stats.hits(), 2u);
    EXPECT_EQ(stats.misses(), 1u);
    EXPECT_EQ(stats.notPredicted, 1u);
    EXPECT_EQ(stats.hitPrimary, 2u);
}

TEST(RunLocal, FlushDaemonPredictsLikeAnyProcess)
{
    std::vector<trace::DiskAccess> accesses = {
        access(0, kFlushDaemonPid, kFlushDaemonPc),
        access(secondsUs(40), kFlushDaemonPid, kFlushDaemonPc),
    };
    ExecutionInput input =
        scriptedInput(std::move(accesses), secondsUs(50));
    PolicySession session(PolicyConfig::timeoutPolicy());
    LocalDriver driver(session);
    const AccuracyStats stats =
        SimulationKernel(SimParams{}).run({input}, driver).accuracy;
    // 40 s gap (hit) and the 10 s trailing gap, where the 10 s
    // timer expires exactly at the end and never fires.
    EXPECT_EQ(stats.opportunities, 2u);
    EXPECT_EQ(stats.hits(), 1u);
    EXPECT_EQ(stats.notPredicted, 1u);
}

TEST(RunGlobal, AccuracyAndEnergyFromOneRun)
{
    std::vector<trace::DiskAccess> accesses = {
        access(0),
        access(secondsUs(30)),
        access(secondsUs(60)),
    };
    ExecutionInput input =
        scriptedInput(std::move(accesses), secondsUs(90));

    PolicySession session(PolicyConfig::timeoutPolicy());
    GlobalDriver driver(session);
    const RunResult result =
        SimulationKernel(SimParams{}).run({input}, driver);

    EXPECT_EQ(result.accuracy.opportunities, 3u);
    EXPECT_EQ(result.accuracy.hits(), 3u); // 30 s gaps, 10 s timer
    EXPECT_EQ(result.shutdowns, 3u);
    EXPECT_EQ(result.spinUps, 2u); // trailing shutdown never wakes
    EXPECT_GT(result.energy.total(), 0.0);
    EXPECT_GT(result.energy.get(power::EnergyCategory::PowerCycle),
              0.0);
}

TEST(RunGlobal, ProcessExitReleasesItsConstraint)
{
    // Process B accesses at 1 s and would block a shutdown until
    // 11 s; it exits at 3 s, so the disk can spin down once process
    // A's own timer (10 s from t=2) expires at 12 s... but with B
    // gone the latest constraint is A's. Scripted so the gap ends at
    // 30 s: the shutdown lands and off-time exceeds breakeven.
    ExecutionInput input;
    input.app = "exit-test";
    input.accesses = {access(secondsUs(1), kPidB),
                      access(secondsUs(2), kPidA),
                      access(secondsUs(30), kPidA)};
    input.processes.push_back({kPidA, 0, secondsUs(40)});
    input.processes.push_back({kPidB, 0, secondsUs(3)});
    input.endTime = secondsUs(40);

    PolicySession session(PolicyConfig::timeoutPolicy());
    GlobalDriver driver(session);
    const RunResult result =
        SimulationKernel(SimParams{}).run({input}, driver);
    // Gap 2..30 s: shutdown at 12 s, off 18 s -> hit. Trailing gap
    // 30..40 s: shutdown at 40... no: timer expires at 40 exactly,
    // not strictly before the end, so it is not predicted.
    EXPECT_EQ(result.accuracy.hits(), 1u);
    EXPECT_EQ(result.shutdowns, 1u);
}

TEST(RunBase, NeverShutsDown)
{
    std::vector<trace::DiskAccess> accesses = {
        access(0), access(secondsUs(100))};
    ExecutionInput input =
        scriptedInput(std::move(accesses), secondsUs(120));
    BaseDriver driver;
    const RunResult result =
        SimulationKernel(SimParams{}).run({input}, driver);
    EXPECT_EQ(result.shutdowns, 0u);
    EXPECT_EQ(result.accuracy.notPredicted,
              result.accuracy.opportunities);
    EXPECT_DOUBLE_EQ(
        result.energy.get(power::EnergyCategory::PowerCycle), 0.0);
}

TEST(RunIdeal, ShutsDownExactlyTheOpportunities)
{
    std::vector<trace::DiskAccess> accesses = {
        access(0),
        access(secondsUs(3)),   // 3 s gap: left alone
        access(secondsUs(30)),  // 27 s gap: shutdown
    };
    ExecutionInput input =
        scriptedInput(std::move(accesses), secondsUs(60));
    OracleDriver driver;
    const RunResult result =
        SimulationKernel(SimParams{}).run({input}, driver);
    EXPECT_EQ(result.accuracy.opportunities, 2u);
    EXPECT_EQ(result.accuracy.hits(), 2u);
    EXPECT_EQ(result.accuracy.misses(), 0u);
    EXPECT_EQ(result.shutdowns, 2u);
}

TEST(RunIdeal, NeverWorseThanBaseOrTimeout)
{
    std::vector<trace::DiskAccess> accesses;
    for (int i = 0; i < 20; ++i)
        accesses.push_back(access(secondsUs(i * 17)));
    ExecutionInput input =
        scriptedInput(std::move(accesses), secondsUs(360));
    SimulationKernel kernel{SimParams{}};

    OracleDriver oracle;
    const double ideal = kernel.run({input}, oracle).energy.total();
    BaseDriver base_driver;
    const double base =
        kernel.run({input}, base_driver).energy.total();
    PolicySession session(PolicyConfig::timeoutPolicy());
    GlobalDriver timeout(session);
    const double tp = kernel.run({input}, timeout).energy.total();

    EXPECT_LE(ideal, base);
    EXPECT_LE(ideal, tp);
    EXPECT_LE(tp, base);
}

TEST(RunResult, MergeAccumulates)
{
    RunResult a, b;
    a.shutdowns = 2;
    a.accuracy.opportunities = 3;
    a.energy = power::EnergyLedger({1.0, 0.0, 0.0, 0.0});
    b.shutdowns = 1;
    b.accuracy.opportunities = 4;
    b.energy = power::EnergyLedger({2.0, 0.0, 0.0, 0.0});
    a.merge(b);
    EXPECT_EQ(a.shutdowns, 3u);
    EXPECT_EQ(a.accuracy.opportunities, 7u);
    EXPECT_DOUBLE_EQ(a.energy.total(), 3.0);
}

TEST(AccuracyStats, FractionsNormalizeToOpportunities)
{
    AccuracyStats stats;
    stats.opportunities = 10;
    stats.hitPrimary = 6;
    stats.hitBackup = 2;
    stats.missPrimary = 3;
    stats.notPredicted = 2;
    EXPECT_DOUBLE_EQ(stats.hitFraction(), 0.8);
    EXPECT_DOUBLE_EQ(stats.missFraction(), 0.3);
    EXPECT_DOUBLE_EQ(stats.notPredictedFraction(), 0.2);
    EXPECT_DOUBLE_EQ(stats.hitPrimaryFraction(), 0.6);
}

TEST(AccuracyStats, EmptyStatsYieldZeroFractions)
{
    const AccuracyStats stats;
    EXPECT_DOUBLE_EQ(stats.hitFraction(), 0.0);
    EXPECT_DOUBLE_EQ(stats.missFraction(), 0.0);
}

TEST(PolicyConfig, FactoryLabels)
{
    EXPECT_EQ(PolicyConfig::timeoutPolicy().label, "TP");
    EXPECT_EQ(PolicyConfig::learningTree().label, "LT");
    EXPECT_EQ(PolicyConfig::learningTreeNoReuse().label, "LTa");
    EXPECT_EQ(PolicyConfig::pcapBase().label, "PCAP");
    EXPECT_EQ(PolicyConfig::pcapHistory().label, "PCAPh");
    EXPECT_EQ(PolicyConfig::pcapFd().label, "PCAPf");
    EXPECT_EQ(PolicyConfig::pcapFdHistory().label, "PCAPfh");
    EXPECT_EQ(PolicyConfig::pcapNoReuse().label, "PCAPa");
    EXPECT_FALSE(PolicyConfig::pcapNoReuse().reuseTables);
    EXPECT_FALSE(PolicyConfig::learningTreeNoReuse().reuseTables);
}

TEST(PolicySession, ReuseKeepsTablesAcrossExecutions)
{
    PolicySession session(PolicyConfig::pcapBase());
    auto predictor = session.makeLocal(1, 0);
    pred::IoContext ctx;
    ctx.time = secondsUs(1);
    ctx.sincePrev = -1;
    ctx.pc = 0x1000;
    predictor->onIo(ctx);
    ctx.time = secondsUs(31);
    ctx.sincePrev = secondsUs(30);
    predictor->onIo(ctx);
    EXPECT_EQ(session.tableEntries(), 1u);

    session.beginExecution();
    EXPECT_EQ(session.tableEntries(), 1u); // reuse keeps it
}

TEST(PolicySession, NoReuseDiscardsTables)
{
    PolicySession session(PolicyConfig::pcapNoReuse());
    auto predictor = session.makeLocal(1, 0);
    pred::IoContext ctx;
    ctx.time = secondsUs(1);
    ctx.sincePrev = -1;
    ctx.pc = 0x1000;
    predictor->onIo(ctx);
    ctx.time = secondsUs(31);
    ctx.sincePrev = secondsUs(30);
    predictor->onIo(ctx);
    EXPECT_EQ(session.tableEntries(), 1u);

    session.beginExecution();
    EXPECT_EQ(session.tableEntries(), 0u);
}

TEST(PolicySession, TimeoutHasNoLearnedState)
{
    PolicySession session(PolicyConfig::timeoutPolicy());
    EXPECT_EQ(session.tableEntries(), 0u);
    EXPECT_EQ(session.table(), nullptr);
}

// ---------------------------------------------------------------
// The replay schedule: finalize() merges in linear time what a full
// sort under SimEvent's total order would produce.
// ---------------------------------------------------------------

/** Every event of @p input, sorted the slow way. */
std::vector<SimEvent>
fullySortedSchedule(const ExecutionInput &input)
{
    std::vector<SimEvent> events;
    for (const ProcessSpan &span : input.processes) {
        events.push_back(
            {span.start, SimEventKind::ProcessStart, span.pid, 0});
        events.push_back(
            {span.end, SimEventKind::ProcessExit, span.pid, 0});
    }
    for (std::size_t i = 0; i < input.accesses.size(); ++i) {
        events.push_back({input.accesses[i].time, SimEventKind::Access,
                          input.accesses[i].pid, i});
    }
    std::sort(events.begin(), events.end());
    return events;
}

void
expectScheduleIsFullSort(const ExecutionInput &input)
{
    const std::vector<SimEvent> expected = fullySortedSchedule(input);
    const std::vector<SimEvent> &actual = input.simEvents();
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
        ASSERT_EQ(actual[i].time, expected[i].time) << "event " << i;
        ASSERT_EQ(actual[i].kind, expected[i].kind) << "event " << i;
        ASSERT_EQ(actual[i].pid, expected[i].pid) << "event " << i;
        ASSERT_EQ(actual[i].accessIndex, expected[i].accessIndex)
            << "event " << i;
    }
}

TEST(ExecutionInput, ScheduleOrdersEqualTimeEventsByKindPidIndex)
{
    // Three accesses at 5 s from two pids, listed out of pid order,
    // plus a start and an exit at the same instant.
    ExecutionInput input;
    input.app = "ties";
    input.accesses = {access(secondsUs(1), kPidA),
                      access(secondsUs(5), kPidB, 0x1),
                      access(secondsUs(5), kPidA, 0x2),
                      access(secondsUs(5), kPidB, 0x3)};
    input.processes.push_back({kPidA, 0, secondsUs(9)});
    input.processes.push_back({kPidB, secondsUs(5), secondsUs(5)});
    input.endTime = secondsUs(9);
    input.finalize();

    const std::vector<SimEvent> &events = input.simEvents();
    ASSERT_EQ(events.size(), 8u);
    EXPECT_EQ(events[2].kind, SimEventKind::ProcessStart); // B at 5 s
    EXPECT_EQ(events[3].accessIndex, 2u); // A's access first
    EXPECT_EQ(events[4].accessIndex, 1u); // then B's, index order
    EXPECT_EQ(events[5].accessIndex, 3u);
    EXPECT_EQ(events[6].kind, SimEventKind::ProcessExit); // B at 5 s
    expectScheduleIsFullSort(input);
}

TEST(ExecutionInput, ScheduleEqualsFullSortOnSuiteAndFleetInputs)
{
    // Every execution of every app at the benchmark seed, then 64
    // hosts of the fleet report's configuration.
    const obs::ScopedMetrics silent(nullptr, {});
    const cache::CacheParams cacheParams;
    for (const std::string &app : workload::standardAppNames()) {
        SCOPED_TRACE(app);
        const auto traces =
            generateTraces(42, app, /*maxExecutions=*/0, 4, silent);
        for (const ExecutionInput &input :
             inputsFromTraces(traces, cacheParams, 4))
            expectScheduleIsFullSort(input);
    }

    workload::FleetConfig fleet;
    fleet.hosts = 64;
    fleet.maxAppsPerHost = 3;
    fleet.executionsMin = 4;
    fleet.executionsMax = 12;
    fleet.minThinkScale = 0.5;
    fleet.maxThinkScale = 2.0;
    for (std::uint64_t host = 0; host < fleet.hosts; ++host) {
        SCOPED_TRACE("fleet host " + std::to_string(host));
        HostExecutionSource source(workload::hostProfile(fleet, host),
                                   cacheParams);
        while (const ExecutionInput *input = source.next())
            expectScheduleIsFullSort(*input);
    }
}

TEST(ExecutionInputDeath, FinalizePanicsOnUnsortedAccesses)
{
    ExecutionInput input =
        scriptedInput({access(secondsUs(2)), access(secondsUs(1))},
                      secondsUs(10));
    EXPECT_DEATH(input.finalize(), "out of time order");
}

} // namespace
} // namespace pcap::sim
