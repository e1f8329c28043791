/**
 * @file
 * Observer-layer tests: TeeObserver fan-out semantics (ordering and
 * exception propagation across 3+ children), exhaustiveness of
 * the per-outcome instrumentation — every IdleOutcome value must be
 * handled by MetricsObserver (through the sink's tallies) and
 * ProvenanceObserver — and the shared idle-length bucket bounds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "sim/kernel.hpp"
#include "sim/observer.hpp"

namespace pcap::sim {
namespace {

/** Appends "<id>:<callback>" to a shared log on every callback. */
class LoggingObserver final : public SimObserver
{
  public:
    LoggingObserver(std::string id, std::vector<std::string> &log)
        : id_(std::move(id)), log_(log)
    {
    }

    void onExecutionBegin(const ExecutionInput &input) override
    {
        (void)input;
        log_.push_back(id_ + ":begin");
    }

    void onExecutionEnd(const ExecutionInput &input,
                        const RunResult &result,
                        const ReplayTotals &totals) override
    {
        (void)input;
        (void)result;
        (void)totals;
        log_.push_back(id_ + ":end");
    }

    void onIdlePeriod(const IdlePeriodRecord &record) override
    {
        (void)record;
        log_.push_back(id_ + ":idle");
    }

    void onShutdownLatched(TimeUs at,
                           pred::DecisionSource source) override
    {
        (void)at;
        (void)source;
        log_.push_back(id_ + ":latched");
    }

    void onShutdownIssued(TimeUs at) override
    {
        (void)at;
        log_.push_back(id_ + ":issued");
    }

  private:
    std::string id_;
    std::vector<std::string> &log_;
};

/** Throws from onIdlePeriod; every other callback logs normally. */
class ThrowingObserver final : public SimObserver
{
  public:
    explicit ThrowingObserver(std::vector<std::string> &log)
        : log_(log)
    {
    }

    void onIdlePeriod(const IdlePeriodRecord &record) override
    {
        (void)record;
        log_.push_back("thrower:idle");
        throw std::runtime_error("child failed");
    }

  private:
    std::vector<std::string> &log_;
};

TEST(TeeObserver, ForwardsToAllChildrenInOrder)
{
    std::vector<std::string> log;
    LoggingObserver a("a", log), b("b", log), c("c", log);
    TeeObserver tee({&a, &b, &c});

    ExecutionInput input;
    input.app = "t";
    RunResult result;
    IdlePeriodRecord record;

    tee.onExecutionBegin(input);
    tee.onShutdownLatched(5, pred::DecisionSource::Primary);
    tee.onShutdownIssued(5);
    tee.onIdlePeriod(record);
    tee.onExecutionEnd(input, result, {});

    const std::vector<std::string> expected = {
        "a:begin",   "b:begin",   "c:begin",   "a:latched",
        "b:latched", "c:latched", "a:issued",  "b:issued",
        "c:issued",  "a:idle",    "b:idle",    "c:idle",
        "a:end",     "b:end",     "c:end",
    };
    EXPECT_EQ(log, expected);
}

TEST(TeeObserver, ChildExceptionPropagatesAndStopsFanOut)
{
    std::vector<std::string> log;
    LoggingObserver first("first", log), last("last", log);
    ThrowingObserver thrower(log);
    TeeObserver tee({&first, &thrower, &last});

    IdlePeriodRecord record;
    EXPECT_THROW(tee.onIdlePeriod(record), std::runtime_error);
    // The first child ran, the thrower ran, the child after the
    // failing one was never reached.
    const std::vector<std::string> expected = {"first:idle",
                                               "thrower:idle"};
    EXPECT_EQ(log, expected);
}

TEST(TeeObserver, RejectsNullChild)
{
    std::vector<std::string> log;
    LoggingObserver a("a", log);
    EXPECT_DEATH(TeeObserver({&a, nullptr}), "null observer");
}

/** One record per IdleOutcome value, in declaration order. */
std::vector<IdlePeriodRecord>
oneRecordPerOutcome()
{
    std::vector<IdlePeriodRecord> records;
    for (std::size_t i = 0; i < 6; ++i) {
        IdlePeriodRecord record;
        record.pid = kMergedStreamPid;
        record.start = static_cast<TimeUs>(i) * 1000;
        record.end = record.start + 100;
        record.outcome = static_cast<IdleOutcome>(i);
        records.push_back(record);
    }
    return records;
}

TEST(MetricsObserver, HandlesEveryIdleOutcome)
{
    obs::MetricsRegistry registry;
    obs::ScopedMetrics scope(&registry, {{"test", "outcomes"}});
    const TimeUs breakeven = secondsUs(5.43);
    MetricsObserver observer(scope, breakeven, /*trackDisk=*/false);

    // The observer takes no per-period callbacks: outcomes reach it
    // through the sink's AccuracyStats and idle tally. One period
    // per IdleOutcome value, in declaration order.
    RunResult result;
    IdleSink sink(breakeven, result.accuracy, observer);
    const TimeUs longGap = secondsUs(30.0);
    const TimeUs shortGap = secondsUs(1.0);
    TimeUs t = 0;
    auto classify = [&](TimeUs gap, TimeUs shutdownAfter,
                        pred::DecisionSource source) {
        sink.classify(kMergedStreamPid, t, t + gap,
                      shutdownAfter < 0 ? -1 : t + shutdownAfter,
                      source);
        t += gap;
    };
    using pred::DecisionSource;
    classify(shortGap, -1, DecisionSource::None);
    classify(longGap, -1, DecisionSource::None);
    classify(longGap, secondsUs(1.0), DecisionSource::Primary);
    classify(longGap, secondsUs(1.0), DecisionSource::Backup);
    classify(shortGap, secondsUs(0.5), DecisionSource::Primary);
    classify(shortGap, secondsUs(0.5), DecisionSource::Backup);

    ExecutionInput input;
    input.app = "t";
    observer.onExecutionBegin(input);
    observer.onExecutionEnd(input, result, {});

    // Every outcome value must land in its own labelled series with
    // exactly one count — a new enumerator without observer support
    // fails here.
    for (std::size_t i = 0; i < 6; ++i) {
        const char *name =
            idleOutcomeName(static_cast<IdleOutcome>(i));
        const obs::Counter &counter = registry.counter(
            "pcap_sim_idle_periods_total",
            {{"test", "outcomes"}, {"outcome", name}});
        EXPECT_EQ(counter.value(), 1u)
            << "outcome " << name << " not counted";
    }
    EXPECT_EQ(scope.histogram("pcap_sim_idle_period_us", {}).count(),
              6u);
}

/** In-memory sink collecting records in arrival order. */
class CollectSink final : public obs::ProvenanceSink
{
  public:
    void write(const obs::ProvenanceRecord &record) override
    {
        records.push_back(record);
    }

    std::vector<obs::ProvenanceRecord> records;
};

TEST(ProvenanceObserver, HandlesEveryIdleOutcome)
{
    CollectSink sink;
    ProvenanceObserver observer(sink, power::DiskParams{});
    ExecutionInput input;
    input.app = "t";
    input.execution = 3;
    observer.onExecutionBegin(input);
    const std::vector<IdlePeriodRecord> periods = oneRecordPerOutcome();
    for (const IdlePeriodRecord &record : periods)
        observer.onIdlePeriod(record);

    const std::vector<obs::ProvenanceRecord> &records = sink.records;
    ASSERT_EQ(records.size(), periods.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_STREQ(obs::provenanceOutcomeName(records[i].outcome),
                     idleOutcomeName(periods[i].outcome));
        EXPECT_EQ(records[i].startUs, periods[i].start);
        EXPECT_EQ(records[i].endUs, periods[i].end);
        EXPECT_EQ(records[i].shutdownUs, periods[i].shutdownAt);
        EXPECT_EQ(records[i].execution, 3);
    }
}

TEST(IdleLengthBounds, AscendAndFoldABreakevenOnADecade)
{
    for (const TimeUs breakeven :
         {secondsUs(5.43), secondsUs(10.0), millisUs(50.0)}) {
        const std::vector<TimeUs> bounds = idleLengthBounds(breakeven);
        EXPECT_TRUE(std::adjacent_find(bounds.begin(), bounds.end(),
                                       std::greater_equal<TimeUs>()) ==
                    bounds.end())
            << "bounds must strictly ascend";
        EXPECT_TRUE(std::count(bounds.begin(), bounds.end(),
                               breakeven) == 1);
        // IdleLengthTally takes them as they are.
        IdleLengthTally tally(bounds);
        tally.add(breakeven);
        EXPECT_EQ(tally.count(), 1u);
    }
    EXPECT_EQ(idleLengthBounds(secondsUs(10.0)).size(), 7u);
    EXPECT_EQ(idleLengthBounds(secondsUs(5.43)).size(), 8u);
}

} // namespace
} // namespace pcap::sim
