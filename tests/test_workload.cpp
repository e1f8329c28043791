/**
 * @file
 * Workload-model tests: every application generates structurally
 * valid, deterministic traces whose shape matches the behaviour the
 * paper describes (process counts, idle structure, I/O volumes).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "obs/metrics.hpp"
#include "sim/trace_store.hpp"
#include "workload/app_model.hpp"
#include "workload/apps.hpp"

namespace pcap::workload {
namespace {

Rng
seedFor(const std::string &app, int execution)
{
    Rng base(1234 ^ hashString(app));
    return base.fork(static_cast<std::uint64_t>(execution));
}

TEST(Registry, KnowsAllSixApplications)
{
    const auto names = standardAppNames();
    ASSERT_EQ(names.size(), 6u);
    for (const std::string &name : names) {
        const auto model = makeApp(name);
        ASSERT_NE(model, nullptr) << name;
        EXPECT_EQ(model->info().name, name);
        EXPECT_GT(model->info().executions, 0);
    }
    EXPECT_EQ(makeApp("unknown-app"), nullptr);
}

TEST(Registry, ExecutionCountsMatchTable1)
{
    EXPECT_EQ(makeApp("mozilla")->info().executions, 49);
    EXPECT_EQ(makeApp("writer")->info().executions, 33);
    EXPECT_EQ(makeApp("impress")->info().executions, 19);
    EXPECT_EQ(makeApp("xemacs")->info().executions, 37);
    EXPECT_EQ(makeApp("nedit")->info().executions, 29);
    EXPECT_EQ(makeApp("mplayer")->info().executions, 31);
}

TEST(Registry, MakeStandardAppsBuildsAll)
{
    const auto apps = makeStandardApps();
    ASSERT_EQ(apps.size(), 6u);
    for (const auto &app : apps)
        EXPECT_NE(app, nullptr);
}

class EveryApp : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryApp, GeneratesStructurallyValidTraces)
{
    const auto model = makeApp(GetParam());
    for (int execution = 0; execution < 3; ++execution) {
        const trace::Trace trace =
            model->generate(execution, seedFor(GetParam(),
                                               execution));
        EXPECT_EQ(trace.validate(), "")
            << GetParam() << " execution " << execution;
        EXPECT_EQ(trace.app(), GetParam());
        EXPECT_EQ(trace.execution(), execution);
        EXPECT_GT(trace.ioCount(), 0u);
    }
}

TEST_P(EveryApp, GenerationIsDeterministic)
{
    const auto model = makeApp(GetParam());
    const trace::Trace a = model->generate(0, seedFor(GetParam(), 0));
    const trace::Trace b = model->generate(0, seedFor(GetParam(), 0));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.events()[i], b.events()[i]);
}

TEST_P(EveryApp, DifferentSeedsGiveDifferentTraces)
{
    const auto model = makeApp(GetParam());
    const trace::Trace a = model->generate(0, Rng(1));
    const trace::Trace b = model->generate(0, Rng(2));
    const bool differs =
        a.size() != b.size() ||
        a.endTime() != b.endTime();
    EXPECT_TRUE(differs) << GetParam();
}

TEST_P(EveryApp, ExecutionsVaryWithinAnApplication)
{
    const auto model = makeApp(GetParam());
    const trace::Trace a = model->generate(0, seedFor(GetParam(), 0));
    const trace::Trace b = model->generate(1, seedFor(GetParam(), 1));
    EXPECT_NE(a.endTime(), b.endTime()) << GetParam();
}

TEST_P(EveryApp, PcsAreStableAcrossExecutions)
{
    // The property PCAP exploits: the set of call sites does not
    // change between executions of the same application.
    const auto model = makeApp(GetParam());
    auto pcs_of = [](const trace::Trace &trace) {
        std::set<Address> pcs;
        for (const auto &event : trace.events()) {
            if (trace::isIoEvent(event.type))
                pcs.insert(event.pc);
        }
        return pcs;
    };
    const auto a =
        pcs_of(model->generate(0, seedFor(GetParam(), 0)));
    const auto b =
        pcs_of(model->generate(5, seedFor(GetParam(), 5)));
    // Every call site of execution 5 already existed in execution 0
    // or vice versa: the union is no bigger than the larger set plus
    // a couple of optional activities.
    std::set<Address> both;
    both.insert(a.begin(), a.end());
    both.insert(b.begin(), b.end());
    EXPECT_LE(both.size(), a.size() + 3);
}

INSTANTIATE_TEST_SUITE_P(AllApps, EveryApp,
                         ::testing::Values("mozilla", "writer",
                                           "impress", "xemacs",
                                           "nedit", "mplayer"),
                         [](const auto &info) { return info.param; });

TEST(NeditShape, SingleProcessSingleIdlePeriod)
{
    // Table 1: nedit is the only single-process application and has
    // exactly one long idle period per execution.
    const auto model = makeApp("nedit");
    for (int execution = 0; execution < 5; ++execution) {
        const trace::Trace trace =
            model->generate(execution, seedFor("nedit", execution));
        EXPECT_EQ(trace.pids().size(), 1u);

        int long_gaps = 0;
        TimeUs prev = -1;
        for (const auto &event : trace.events()) {
            if (!trace::isIoEvent(event.type))
                continue;
            if (prev >= 0 && event.time - prev > secondsUs(5.43))
                ++long_gaps;
            prev = event.time;
        }
        EXPECT_EQ(long_gaps, 1) << "execution " << execution;
    }
}

TEST(MozillaShape, ThreeProcesses)
{
    const auto model = makeApp("mozilla");
    const trace::Trace trace =
        model->generate(0, seedFor("mozilla", 0));
    EXPECT_EQ(trace.pids().size(), 3u);
}

TEST(MplayerShape, TwoProcessesAndEndOfMovieDrain)
{
    const auto model = makeApp("mplayer");
    const trace::Trace trace =
        model->generate(0, seedFor("mplayer", 0));
    EXPECT_EQ(trace.pids().size(), 2u);

    // The drain: a >= 30 s silence right before the final config
    // write and exit.
    TimeUs prev = -1;
    TimeUs largest_tail_gap = 0;
    for (const auto &event : trace.events()) {
        if (!trace::isIoEvent(event.type))
            continue;
        if (prev >= 0)
            largest_tail_gap =
                std::max(largest_tail_gap, event.time - prev);
        prev = event.time;
    }
    EXPECT_GE(largest_tail_gap, secondsUs(30.0));
}

TEST(MplayerShape, StreamingVolumeDominates)
{
    // mplayer is by far the most I/O-heavy application in Table 1.
    const auto mplayer = makeApp("mplayer")->generate(
        0, seedFor("mplayer", 0));
    const auto nedit =
        makeApp("nedit")->generate(0, seedFor("nedit", 0));
    EXPECT_GT(mplayer.ioCount(), 20 * nedit.ioCount());
}

TEST(WriterShape, TwoProcessesWithHelper)
{
    const auto model = makeApp("writer");
    const trace::Trace trace =
        model->generate(0, seedFor("writer", 0));
    EXPECT_EQ(trace.pids().size(), 2u);
}

TEST(XemacsShape, MostlySingleProcess)
{
    // Table 1: xemacs' local idle count barely exceeds its global
    // one — the compile helper appears only in some executions.
    const auto model = makeApp("xemacs");
    int multi = 0;
    for (int execution = 0; execution < 10; ++execution) {
        const trace::Trace trace =
            model->generate(execution, seedFor("xemacs", execution));
        multi += trace.pids().size() > 1;
    }
    EXPECT_GT(multi, 0);
    EXPECT_LT(multi, 8);
}

/** pcap_workload_generated_events_total by type label, as the
 * registry holds it. */
std::map<std::string, std::uint64_t>
generatedEventSeries(const obs::MetricsRegistry &registry)
{
    std::map<std::string, std::uint64_t> byType;
    for (const auto &series : registry.snapshot()) {
        if (series.name != "pcap_workload_generated_events_total")
            continue;
        for (const auto &[key, value] : series.labels) {
            if (key == "type")
                byType[value] = series.counter->value();
        }
    }
    return byType;
}

TEST(GenerationMetrics, EventCountersEqualPerTypeCounts)
{
    // nedit is single-process: its traces have no fork events, so
    // the absent-type rule is exercised too.
    const std::string app = "nedit";
    std::map<unsigned, std::map<std::string, std::uint64_t>> seen;
    for (unsigned jobs : {1u, 4u}) {
        obs::MetricsRegistry registry;
        const std::vector<trace::Trace> traces = sim::generateTraces(
            42, app, 8, jobs,
            obs::ScopedMetrics(&registry, {{"app", app}}));

        std::map<std::string, std::uint64_t> expected;
        for (const trace::Trace &trace : traces) {
            for (const trace::TraceEvent &event : trace.events())
                ++expected[trace::eventTypeName(event.type)];
        }
        EXPECT_EQ(expected.count("fork"), 0u);
        // Equal maps: every present type has its exact count, and no
        // series exists for a type the traces lack.
        EXPECT_EQ(generatedEventSeries(registry), expected)
            << "jobs " << jobs;
        EXPECT_EQ(registry
                      .counter("pcap_workload_generated_traces_total",
                               {{"app", app}})
                      .value(),
                  traces.size());
        seen[jobs] = generatedEventSeries(registry);
    }
    EXPECT_EQ(seen[1], seen[4]);
}

} // namespace
} // namespace pcap::workload
