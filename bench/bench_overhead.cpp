/**
 * @file
 * Runtime overhead of PCAP (Section 3.2.2) — google-benchmark
 * microbenchmarks.
 *
 * The paper argues the per-I/O work (obtain the PC, add it to the
 * signature, one hash-table lookup) is "about four memory accesses"
 * and insignificant next to the thousands of instructions an I/O
 * takes. These benchmarks measure the actual cost of the
 * signature update + table lookup, the training path, the Learning
 * Tree step, and a full global-predictor access.
 */

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <unordered_map>

#include "cache/file_cache.hpp"
#include "core/global.hpp"
#include "core/pcap.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "pred/learning_tree.hpp"
#include "pred/timeout.hpp"
#include "sim/drivers.hpp"
#include "sim/input.hpp"
#include "sim/kernel.hpp"
#include "sim/observer.hpp"
#include "sim/policy.hpp"
#include "util/rng.hpp"
#include "workload/app_model.hpp"

using namespace pcap;

namespace {

/** Pre-populate a table with n realistic entries. */
std::shared_ptr<core::PredictionTable>
makeTable(std::size_t n)
{
    auto table = std::make_shared<core::PredictionTable>();
    for (std::size_t i = 0; i < n; ++i) {
        core::TableKey key;
        key.signature = static_cast<std::uint32_t>(
            0x08048000u + i * 0x9e3779b9u);
        table->train(key);
    }
    return table;
}

void
BM_PcapOnIo(benchmark::State &state)
{
    const auto table =
        makeTable(static_cast<std::size_t>(state.range(0)));
    core::PcapConfig config;
    core::PcapPredictor predictor(config, table);

    pred::IoContext ctx;
    ctx.time = 0;
    ctx.sincePrev = millisUs(50);
    ctx.pc = 0x08048010;
    ctx.fd = 3;
    for (auto _ : state) {
        ctx.time += millisUs(100);
        ctx.pc += 0x10;
        benchmark::DoNotOptimize(predictor.onIo(ctx));
    }
}
BENCHMARK(BM_PcapOnIo)->Arg(16)->Arg(139)->Arg(4096);

void
BM_PcapTrainingCycle(benchmark::State &state)
{
    const auto table = makeTable(64);
    core::PcapConfig config;
    core::PcapPredictor predictor(config, table);

    pred::IoContext ctx;
    ctx.time = 0;
    ctx.pc = 0x08048010;
    ctx.fd = 3;
    for (auto _ : state) {
        // A long idle period completes: training + path reset.
        ctx.time += secondsUs(10);
        ctx.sincePrev = secondsUs(10);
        ctx.pc += 0x10;
        benchmark::DoNotOptimize(predictor.onIo(ctx));
    }
}
BENCHMARK(BM_PcapTrainingCycle);

void
BM_TableLookup(benchmark::State &state)
{
    const auto table =
        makeTable(static_cast<std::size_t>(state.range(0)));
    core::TableKey key;
    key.signature = 0x08048000u + 7 * 0x9e3779b9u;
    for (auto _ : state)
        benchmark::DoNotOptimize(table->lookup(key));
}
BENCHMARK(BM_TableLookup)->Arg(139)->Arg(4096);

void
BM_LearningTreeOnIo(benchmark::State &state)
{
    pred::LtConfig config;
    auto tree = std::make_shared<pred::LtTree>(config);
    pred::LtPredictor predictor(config, tree);

    pred::IoContext ctx;
    ctx.time = 0;
    std::uint64_t i = 0;
    for (auto _ : state) {
        ctx.time += secondsUs(4);
        // Alternate short/long so the tree keeps training.
        ctx.sincePrev = (++i % 3) ? secondsUs(2) : secondsUs(8);
        benchmark::DoNotOptimize(predictor.onIo(ctx));
    }
}
BENCHMARK(BM_LearningTreeOnIo);

void
BM_GlobalPredictorAccess(benchmark::State &state)
{
    const auto table = makeTable(64);
    core::GlobalShutdownPredictor gsp(
        [&table](Pid, TimeUs) {
            return std::make_unique<core::PcapPredictor>(
                core::PcapConfig{}, table);
        });
    const int processes = static_cast<int>(state.range(0));
    for (Pid pid = 0; pid < processes; ++pid)
        gsp.processStart(pid, 0);

    trace::DiskAccess access;
    access.pc = 0x08048010;
    access.fd = 3;
    std::uint64_t i = 0;
    for (auto _ : state) {
        access.time += millisUs(100);
        access.pid = static_cast<Pid>(++i % processes);
        access.pc += 0x10;
        benchmark::DoNotOptimize(gsp.onAccess(access));
    }
}
BENCHMARK(BM_GlobalPredictorAccess)->Arg(1)->Arg(4)->Arg(16);

/** One generated execution of @p app (execution 0, seed 42). */
trace::Trace
makeTrace(const std::string &app)
{
    Rng rng = Rng(42 ^ hashString(app)).fork(0);
    return workload::makeApp(app)->generate(0, rng);
}

/**
 * The file-cache filter on a generated execution at the paper's
 * 256 KB and at the largest sweep size, 4 MB. "per_lookup" is
 * seconds per block lookup (2.5n reads as 2.5 ns per lookup).
 */
void
BM_FileCacheFilter(benchmark::State &state)
{
    const trace::Trace trace = makeTrace("mozilla");
    cache::CacheParams params;
    params.capacityBytes =
        static_cast<std::size_t>(state.range(0)) * 1024;
    cache::CacheStats stats;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cache::filterTrace(trace, params, &stats));
    state.counters["per_lookup"] = benchmark::Counter(
        static_cast<double>(stats.lookups),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_FileCacheFilter)->Arg(256)->Arg(4096);

/**
 * ExecutionInput::finalize on a filtered execution: the merged
 * replay schedule. "per_access" is seconds per disk access.
 */
void
BM_InputFinalize(benchmark::State &state)
{
    sim::ExecutionInput input = sim::ExecutionInput::fromTrace(
        makeTrace("mozilla"), cache::CacheParams{});
    for (auto _ : state) {
        input.finalize();
        benchmark::DoNotOptimize(input.simEvents().data());
    }
    state.counters["per_access"] = benchmark::Counter(
        static_cast<double>(input.accesses.size()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_InputFinalize);

/**
 * The GlobalShutdownPredictor slot store: per-access pid lookup
 * followed by a full scan combining decisions. Measured for both
 * map types to back the std::map → std::unordered_map switch in
 * core/global.hpp (see DESIGN.md for recorded numbers).
 */
struct SlotLike
{
    TimeUs lastIoTime = -1;
    TimeUs earliest = 0;
};

template <typename Map>
void
BM_SlotStoreAccess(benchmark::State &state)
{
    const Pid slots = static_cast<Pid>(state.range(0));
    Map map;
    for (Pid pid = 0; pid < slots; ++pid)
        map.emplace(pid, SlotLike{pid * 100, pid * 1000});

    std::uint64_t i = 0;
    for (auto _ : state) {
        // The per-access path: find the responsible slot, update it,
        // then scan all slots for the latest decision.
        const Pid pid = static_cast<Pid>(++i % slots);
        auto it = map.find(pid);
        it->second.lastIoTime = static_cast<TimeUs>(i);
        TimeUs best = -1;
        for (const auto &[key, slot] : map) {
            (void)key;
            if (slot.earliest > best)
                best = slot.earliest;
        }
        benchmark::DoNotOptimize(best);
    }
}
BENCHMARK(BM_SlotStoreAccess<std::map<Pid, SlotLike>>)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64);
BENCHMARK(BM_SlotStoreAccess<std::unordered_map<Pid, SlotLike>>)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64);

/**
 * Observability hot paths (PR 3): the per-event cost of a resolved
 * counter increment and histogram observe, the resolve (registry
 * lookup) itself, and the end-to-end tax of hanging a
 * MetricsObserver on the idle-period sink versus the NullObserver.
 * The acceptance bar is <5% on the simulation hot path; the
 * per-event costs here are the budget's denominators.
 */
void
BM_MetricsCounterInc(benchmark::State &state)
{
    obs::MetricsRegistry registry;
    obs::Counter &counter = registry.counter("bm_total");
    for (auto _ : state)
        counter.inc();
    benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_MetricsCounterInc);

void
BM_MetricsHistogramObserve(benchmark::State &state)
{
    obs::MetricsRegistry registry;
    obs::Histogram &histogram = registry.histogram(
        "bm_hist", {1e4, 1e5, 1e6, 2e6, 1e7, 3e7, 6e7, 3e8});
    double v = 0.0;
    for (auto _ : state) {
        v = v > 1e8 ? 1.0 : v * 3.0 + 7.0;
        histogram.observe(v);
    }
    benchmark::DoNotOptimize(histogram.count());
}
BENCHMARK(BM_MetricsHistogramObserve);

void
BM_MetricsRegistryLookup(benchmark::State &state)
{
    // The once-per-cell resolve path: mutex + hash of the series
    // identity. Hot loops hoist this out; the benchmark documents
    // why.
    obs::MetricsRegistry registry;
    registry.counter("bm_total", {{"app", "x"}});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            &registry.counter("bm_total", {{"app", "x"}}));
    }
}
BENCHMARK(BM_MetricsRegistryLookup);

/** What observes a BM_IdleSinkClassify or BM_KernelReplay run. */
enum class ReplayObserver {
    Null,       ///< the shared NullObserver
    Provenance, ///< a ProvenanceObserver (per-event callbacks)
    Metrics,    ///< a MetricsObserver (per-execution totals only)
};

/** A provenance sink that only counts its records. */
class CountingSink final : public obs::ProvenanceSink
{
  public:
    void write(const obs::ProvenanceRecord &record) override
    {
        benchmark::DoNotOptimize(&record);
        ++records;
    }

    std::uint64_t records = 0;
};

/** One observer of each ReplayObserver kind. */
struct ReplayObservers
{
    explicit ReplayObservers(const sim::SimParams &params)
        : provenance(sink, params.disk),
          metrics(obs::ScopedMetrics(&registry, {{"app", "bm"}}),
                  params.breakeven())
    {
    }

    sim::SimObserver &
    pick(ReplayObserver kind)
    {
        switch (kind) {
          case ReplayObserver::Provenance: return provenance;
          case ReplayObserver::Metrics: return metrics;
          case ReplayObserver::Null: break;
        }
        return sim::nullObserver();
    }

    CountingSink sink;
    sim::ProvenanceObserver provenance;
    obs::MetricsRegistry registry;
    sim::MetricsObserver metrics;
};

template <ReplayObserver Kind>
void
BM_IdleSinkClassify(benchmark::State &state)
{
    sim::SimParams params;
    ReplayObservers observers(params);
    sim::AccuracyStats stats;
    sim::IdleSink sink(params.breakeven(), stats, observers.pick(Kind));
    TimeUs t = 0;
    std::uint64_t i = 0;
    for (auto _ : state) {
        const TimeUs gap =
            (++i % 3) ? secondsUs(30.0) : millisUs(100.0);
        sink.classify(0, t, t + gap, (i % 3) ? t + secondsUs(5.0) : -1,
                      pred::DecisionSource::Primary);
        t += gap;
    }
    benchmark::DoNotOptimize(stats.opportunities);
}
BENCHMARK(BM_IdleSinkClassify<ReplayObserver::Null>)
    ->Name("BM_IdleSinkClassify/null");
BENCHMARK(BM_IdleSinkClassify<ReplayObserver::Metrics>)
    ->Name("BM_IdleSinkClassify/metrics");
BENCHMARK(BM_IdleSinkClassify<ReplayObserver::Provenance>)
    ->Name("BM_IdleSinkClassify/provenance");

// The provenance cost per classified idle period is
// BM_IdleSinkClassify/provenance (a ProvenanceObserver building each
// record and handing it to a counting sink) against
// BM_IdleSinkClassify/null; the default provenance-off path pays
// only a null pointer test in the predictor.

/**
 * The replay kernel: one full execution replayed through
 * SimulationKernel per iteration, with and without an attached
 * observer. A ProvenanceObserver over a counting sink takes
 * per-event callbacks and replays on the instrumented loop, one
 * record per classified period; a MetricsObserver takes none,
 * so metrics runs the uninstrumented loop and differs from null
 * only by the idle tally and the per-execution fold. The
 * "per_period" counter is seconds per idle period (displayed with an
 * SI suffix, so 2.5n reads as 2.5 ns/period).
 *
 * The input alternates two 100 ms gaps with one 30 s opportunity, so
 * the replay exercises classification, shutdown issuance and the
 * disk model — not just event dispatch.
 */
sim::ExecutionInput
makeReplayInput(std::size_t periods)
{
    sim::ExecutionInput input;
    input.app = "synthetic";
    TimeUs t = 0;
    for (std::size_t i = 0; i < periods; ++i) {
        trace::DiskAccess access;
        access.time = t;
        access.pid = static_cast<Pid>(i % 4);
        access.pc = 0x08048000u + static_cast<std::uint32_t>(i % 97);
        input.accesses.push_back(access);
        t += (i % 3) ? millisUs(100.0) : secondsUs(30.0);
    }
    for (Pid pid = 0; pid < 4; ++pid)
        input.processes.push_back({pid, 0, t});
    input.endTime = t;
    input.finalize();
    return input;
}

template <ReplayObserver Kind>
void
BM_KernelReplay(benchmark::State &state)
{
    const std::size_t periods =
        static_cast<std::size_t>(state.range(0));
    const sim::ExecutionInput input = makeReplayInput(periods);
    sim::SimParams params;
    ReplayObservers observers(params);
    sim::SimulationKernel kernel(params, observers.pick(Kind));
    sim::PolicySession session(sim::policyByName("TP"));
    sim::GlobalDriver driver(session);
    for (auto _ : state)
        benchmark::DoNotOptimize(kernel.runExecution(input, driver));
    state.counters["per_period"] = benchmark::Counter(
        static_cast<double>(periods),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_KernelReplay<ReplayObserver::Null>)
    ->Name("BM_KernelReplay/null")
    ->Arg(65536);
BENCHMARK(BM_KernelReplay<ReplayObserver::Provenance>)
    ->Name("BM_KernelReplay/observed")
    ->Arg(65536);
BENCHMARK(BM_KernelReplay<ReplayObserver::Metrics>)
    ->Name("BM_KernelReplay/metrics")
    ->Arg(65536);

/**
 * The same replay on a generated mozilla execution after the
 * 256 KB file cache, replayed under PCAP: real traces classify about
 * one idle period per disk access, most of them far below the
 * breakeven time. "per_access" is seconds per disk access.
 */
template <ReplayObserver Kind>
void
BM_KernelTraceReplay(benchmark::State &state)
{
    const sim::ExecutionInput input = sim::ExecutionInput::fromTrace(
        makeTrace("mozilla"), cache::CacheParams{});
    sim::SimParams params;
    ReplayObservers observers(params);
    sim::SimulationKernel kernel(params, observers.pick(Kind));
    sim::PolicySession session(sim::policyByName("PCAP"));
    sim::GlobalDriver driver(session);
    if (Kind == ReplayObserver::Provenance)
        observers.provenance.bind(session, &driver);
    for (auto _ : state)
        benchmark::DoNotOptimize(kernel.runExecution(input, driver));
    state.counters["per_access"] = benchmark::Counter(
        static_cast<double>(input.accesses.size()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_KernelTraceReplay<ReplayObserver::Null>)
    ->Name("BM_KernelTraceReplay/null");
BENCHMARK(BM_KernelTraceReplay<ReplayObserver::Provenance>)
    ->Name("BM_KernelTraceReplay/observed");
BENCHMARK(BM_KernelTraceReplay<ReplayObserver::Metrics>)
    ->Name("BM_KernelTraceReplay/metrics");

/**
 * Generation metrics for one generated execution: the
 * pcap_workload_generated_* series of a trace, recorded into a
 * registry scope and into a disabled scope. "per_event" is seconds
 * per trace event.
 */
template <bool WithRegistry>
void
BM_RecordTraceMetrics(benchmark::State &state)
{
    const trace::Trace trace = makeTrace("mozilla");
    obs::MetricsRegistry registry;
    const obs::ScopedMetrics scope =
        WithRegistry ? obs::ScopedMetrics(&registry, {{"app", "bm"}})
                     : obs::ScopedMetrics();
    for (auto _ : state)
        workload::recordTraceMetrics(trace, scope);
    state.counters["per_event"] = benchmark::Counter(
        static_cast<double>(trace.events().size()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_RecordTraceMetrics<true>)
    ->Name("BM_RecordTraceMetrics/registry");
BENCHMARK(BM_RecordTraceMetrics<false>)
    ->Name("BM_RecordTraceMetrics/disabled");

void
BM_TimeoutOnIo(benchmark::State &state)
{
    pred::TimeoutPredictor predictor(secondsUs(10.0));
    pred::IoContext ctx;
    for (auto _ : state) {
        ctx.time += millisUs(100);
        benchmark::DoNotOptimize(predictor.onIo(ctx));
    }
}
BENCHMARK(BM_TimeoutOnIo);

} // namespace

BENCHMARK_MAIN();
