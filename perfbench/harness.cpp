/**
 * @file
 * perfbench — the repository benchmark harness.
 *
 * Links the repository's libraries and times calls into each
 * layer's public functions from outside; it never drives
 * bench_all's command line. perfbench/run.py builds this binary,
 * runs it and checks its outputs; see perfbench/README.md for the
 * workloads, the metrics and how they relate.
 *
 * Untraced runs repeat one workload end to end for --seconds and
 * report medians of host time. A traced run (--trace 1) also walks
 * the workload's layers serially, timing every public call with its
 * work count, and reports per-layer costs plus how much of the
 * walk's wall time the layer timers account for.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/file_cache.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "reports.hpp"
#include "sim/cell_store.hpp"
#include "sim/drivers.hpp"
#include "sim/experiment.hpp"
#include "sim/fleet.hpp"
#include "sim/input_cache.hpp"
#include "sim/kernel.hpp"
#include "sim/policy.hpp"
#include "sim/trace_store.hpp"
#include "util/json.hpp"
#include "util/resource.hpp"
#include "util/thread_pool.hpp"
#include "workload/app_model.hpp"
#include "workload/host_profile.hpp"

using namespace pcap;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Runs @p fn and returns its wall time in nanoseconds. */
template <typename Fn>
double
timeNs(Fn &&fn)
{
    const Clock::time_point start = Clock::now();
    fn();
    return std::chrono::duration<double, std::nano>(Clock::now() -
                                                    start)
        .count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                              : 0.5 * (values[mid - 1] + values[mid]);
}

/** Nearest-rank percentile, @p q in (0, 1]. */
double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(values.size()) + 0.999999);
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

// -- Process probes ---------------------------------------------

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/** A "Key:   <number> ..." field of /proc/self/status, or -1. */
long
procStatusField(const std::string &key)
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.compare(0, key.size(), key) == 0 &&
            line.size() > key.size() && line[key.size()] == ':')
            return std::strtol(line.c_str() + key.size() + 1, nullptr,
                               10);
    }
    return -1;
}

/** Restart the kernel's peak-RSS mark so each repetition reports
 * its own peak (Linux clear_refs "5"); false where unsupported.
 * Free heap pages go back to the kernel first, so heap an earlier
 * repetition freed does not count toward this one's peak. */
bool
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream os("/proc/self/clear_refs");
    os << "5";
    os.flush();
    return static_cast<bool>(os);
}

double
peakRssMiB()
{
    const long kib = procStatusField("VmHWM");
    if (kib > 0)
        return static_cast<double>(kib) / 1024.0;
    return static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0);
}

/** Samples the process thread count every millisecond until
 * destroyed; the sampler's own thread is not counted. */
class ThreadSampler
{
  public:
    ThreadSampler()
        : thread_([this] {
              while (!stop_.load(std::memory_order_relaxed)) {
                  const long threads = procStatusField("Threads") - 1;
                  if (threads > peak_.load(std::memory_order_relaxed))
                      peak_.store(threads, std::memory_order_relaxed);
                  std::this_thread::sleep_for(
                      std::chrono::milliseconds(1));
              }
          })
    {
    }
    ThreadSampler(const ThreadSampler &) = delete;
    ThreadSampler &operator=(const ThreadSampler &) = delete;
    ~ThreadSampler()
    {
        stop_.store(true);
        thread_.join();
    }
    long peak() const { return peak_.load(); }

  private:
    std::atomic<bool> stop_{false};
    std::atomic<long> peak_{0};
    std::thread thread_;
};

// -- Options ----------------------------------------------------

/** Hosts of the fleet workload, the fleet size of the ROADMAP
 * baseline; perfbench/expected pins its seed-42 outputs. */
constexpr std::uint64_t kFleetHosts = 1000;

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    unsigned jobs = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    std::uint64_t hosts = kFleetHosts; ///< smaller only for the warm-up
    std::string workDir;  ///< repetition documents and walk temporaries
    std::string cacheDir; ///< suite-warm's pre-filled input cache
    bool fill = false;    ///< fill cacheDir and exit
};

[[noreturn]] void
usageError(const std::string &message)
{
    std::cerr << "perfbench: " << message << "\n"
              << "usage: perfbench --workload suite-cold|suite-warm|"
                 "fleet --seed N --seconds S --trace 0|1\n"
                 "                 --work-dir DIR [--cache-dir DIR]\n"
                 "       perfbench --fill --seed N --cache-dir DIR\n";
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos ||
        text.size() > 18)
        usageError(flag + " needs a non-negative integer, got '" +
                   text + "'");
    return std::stoull(text);
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (++i >= argc)
                usageError(arg + " needs a value");
            return argv[i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = parseUnsigned(arg, value());
        else if (arg == "--seconds")
            opt.seconds =
                static_cast<double>(parseUnsigned(arg, value()));
        else if (arg == "--trace")
            opt.trace = parseUnsigned(arg, value()) != 0;
        else if (arg == "--work-dir")
            opt.workDir = value();
        else if (arg == "--cache-dir")
            opt.cacheDir = value();
        else if (arg == "--fill")
            opt.fill = true;
        else
            usageError("unknown option " + arg);
    }
    if (opt.fill) {
        if (opt.cacheDir.empty())
            usageError("--fill needs --cache-dir");
        return opt;
    }
    if (opt.workload != "suite-cold" && opt.workload != "suite-warm" &&
        opt.workload != "fleet")
        usageError("unknown workload '" + opt.workload + "'");
    if (opt.workDir.empty())
        usageError("--work-dir is required");
    if (opt.workload == "suite-warm" && opt.cacheDir.empty())
        usageError("suite-warm needs --cache-dir (see --fill)");
    return opt;
}

// -- Checked outputs --------------------------------------------

/** What one repetition produced that must repeat exactly. */
struct Outputs
{
    std::vector<std::pair<std::string, std::string>> reports;
    Json fleet; ///< pcap-fleet-v1 block (fleet workload only)
    std::uint64_t replayedAccesses = 0;
};

/** One end-to-end repetition. */
struct Rep
{
    double wallS = 0.0;
    double setupS = 0.0;
    double cpuS = 0.0;
    double peakRssMiB = 0.0;
    double poolTaskNs = 0.0;
    Outputs out;
};

/** A BENCH_RESULTS-shaped document of @p out, comparable by
 * tools/compare_bench.py. */
Json
resultsDoc(std::uint64_t seed, const Outputs &out)
{
    Json root = Json::object();
    root["schema"] = "pcap-bench-results-v1";
    root["seed"] = seed;
    Json &reports = root["reports"];
    reports = Json::object();
    for (const auto &[name, text] : out.reports) {
        Json lines = Json::array();
        std::istringstream is(text);
        std::string line;
        while (std::getline(is, line))
            lines.push(line);
        Json &entry = reports[name];
        entry = Json::object();
        entry["lines"] = std::move(lines);
    }
    if (!out.fleet.isNull())
        root["fleet"] = out.fleet;
    return root;
}

std::string
dumped(const Json &json)
{
    std::ostringstream os;
    json.dump(os);
    return os.str();
}

void
writeDoc(const std::string &path, const Json &doc)
{
    std::ofstream os(path);
    doc.dump(os, 1);
    os << "\n";
    if (!os) {
        std::cerr << "perfbench: cannot write " << path << "\n";
        std::exit(1);
    }
}

/** Tallies checked outputs; every mismatch is reported on stderr. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
        }
    }

    /** Every output of @p got equals the first repetition's. */
    void sameAs(const Outputs &first, const Outputs &got)
    {
        expect(got.reports.size() == first.reports.size(),
               "report count repeats");
        for (std::size_t i = 0;
             i < std::min(got.reports.size(), first.reports.size());
             ++i)
            expect(got.reports[i] == first.reports[i],
                   "report " + first.reports[i].first +
                       " repeats byte for byte");
        if (!first.fleet.isNull())
            expect(dumped(got.fleet) == dumped(first.fleet),
                   "fleet block repeats");
        expect(got.replayedAccesses == first.replayedAccesses,
               "replayed-access count repeats (" +
                   std::to_string(got.replayedAccesses) + " vs " +
                   std::to_string(first.replayedAccesses) + ")");
    }
};

// -- Suite workloads --------------------------------------------

sim::ExperimentConfig
suiteConfig(std::uint64_t seed)
{
    sim::ExperimentConfig config = bench::standardConfig();
    config.seed = seed;
    return config;
}

/** The default bench_all selection: every report not opt-in. */
std::vector<const bench::Report *>
suiteReports()
{
    std::vector<const bench::Report *> reports;
    for (const bench::Report &report : bench::allReports())
        if (!report.optIn)
            reports.push_back(&report);
    return reports;
}

std::vector<sim::Cell>
suiteCells()
{
    std::vector<sim::Cell> cells;
    for (const bench::Report *report : suiteReports()) {
        const std::vector<sim::Cell> more = report->cells();
        cells.insert(cells.end(), more.begin(), more.end());
    }
    return cells;
}

/**
 * Disk accesses replayed by every policy cell of a suite run: each
 * replayed cell counts its executions, and an application's input
 * set carries its access total, both per engine configuration.
 */
std::uint64_t
replayedAccesses(const obs::MetricsRegistry &registry)
{
    auto labelOf = [](const obs::Labels &labels, const char *key) {
        for (const auto &[k, v] : labels)
            if (k == key)
                return v;
        return std::string();
    };
    using Key = std::pair<std::string, std::string>;
    std::map<Key, double> accesses, executions;
    const auto series = registry.snapshot();
    for (const auto &s : series) {
        const Key key{labelOf(s.labels, "config"),
                      labelOf(s.labels, "app")};
        if (s.name == "pcap_sim_input_disk_accesses_total" &&
            s.counter)
            accesses[key] = static_cast<double>(s.counter->value());
        else if (s.name == "pcap_sim_input_executions" && s.gauge)
            executions[key] = s.gauge->value();
    }
    double total = 0.0;
    for (const auto &s : series) {
        if (s.name != "pcap_sim_executions_total" || !s.counter)
            continue;
        const Key key{labelOf(s.labels, "config"),
                      labelOf(s.labels, "app")};
        if (executions[key] > 0)
            total += accesses[key] *
                     static_cast<double>(s.counter->value()) /
                     executions[key];
    }
    return static_cast<std::uint64_t>(total + 0.5);
}

/** Engines built for the ablation sweep share the suite's options
 * and the benchmark seed (the reports default to seed 42). */
bench::EvalFactory
seededFactory(const sim::ParallelOptions &options, std::uint64_t seed)
{
    return [options, seed](const sim::ExperimentConfig &config) {
        sim::ExperimentConfig seeded = config;
        seeded.seed = seed;
        return std::unique_ptr<sim::EvaluationApi>(
            new sim::ParallelEvaluation(seeded, options));
    };
}

sim::ParallelOptions
suiteOptions(unsigned jobs, const std::string &cacheDir,
             obs::MetricsRegistry *registry)
{
    sim::ParallelOptions options;
    options.jobs = jobs;
    options.cacheDir = cacheDir;
    options.metrics = registry;
    options.traceStore = std::make_shared<sim::TraceStore>();
    options.cellStore = std::make_shared<sim::CellStore>();
    return options;
}

/** One bench_all-equivalent run of the default report suite. */
Rep
runSuite(const Options &opt, const std::string &cacheDir,
         bool withMetrics)
{
    std::unique_ptr<obs::MetricsRegistry> registry;
    if (withMetrics)
        registry = std::make_unique<obs::MetricsRegistry>();
    const sim::ParallelOptions options =
        suiteOptions(opt.jobs, cacheDir, registry.get());

    Rep rep;
    resetPeakRss();
    const double cpu0 = cpuSeconds();
    const double pool0 =
        static_cast<double>(ThreadPool::globalStats().taskNanos);
    const Clock::time_point start = Clock::now();
    {
        sim::ParallelEvaluation eval(suiteConfig(opt.seed), options);
        eval.prefetchInputs();
        rep.setupS = secondsSince(start);
        eval.prefetch(suiteCells());
        bench::ReportContext ctx{eval,
                                 seededFactory(options, opt.seed)};
        ctx.traceStore = options.traceStore.get();
        for (const bench::Report *report : suiteReports()) {
            std::ostringstream text;
            report->run(ctx, text);
            rep.out.reports.emplace_back(report->name, text.str());
        }
        rep.wallS = secondsSince(start);
        rep.cpuS = cpuSeconds() - cpu0;
        rep.poolTaskNs =
            static_cast<double>(ThreadPool::globalStats().taskNanos) -
            pool0;
        rep.peakRssMiB = peakRssMiB();
    }
    if (registry)
        rep.out.replayedAccesses = replayedAccesses(*registry);
    return rep;
}

// -- Fleet workload ---------------------------------------------

/** The fleet report's configuration (bench/reports.cpp reportFleet):
 * 1-3 apps per host, 4-12 executions, think-time scale 0.5-2.0. */
workload::FleetConfig
fleetConfig(std::uint64_t seed, std::uint64_t hosts)
{
    workload::FleetConfig fleet;
    fleet.fleetSeed = seed;
    fleet.hosts = hosts;
    fleet.maxAppsPerHost = 3;
    fleet.executionsMin = 4;
    fleet.executionsMax = 12;
    fleet.minThinkScale = 0.5;
    fleet.maxThinkScale = 2.0;
    return fleet;
}

const bench::Report &
fleetReport()
{
    for (const bench::Report &report : bench::allReports())
        if (report.name == "fleet")
            return report;
    std::cerr << "perfbench: no fleet report\n";
    std::exit(1);
}

/**
 * The fleet report's set-up, everything it does before
 * FleetDriver::run: the standard configuration, the policies, the
 * fleet configuration and the driver, built from @p ctx as
 * reportFleet builds them. The report does this inside its timed
 * run, where it is too quick to time once, so it is repeated here
 * beside the run: the median of batches, in seconds per set-up.
 */
double
fleetSetupSeconds(const bench::ReportContext &ctx)
{
    constexpr int kBatches = 51;
    constexpr int kPerBatch = 2000;
    std::vector<double> perSetup;
    for (int b = 0; b < kBatches; ++b) {
        const Clock::time_point start = Clock::now();
        for (int i = 0; i < kPerBatch; ++i) {
            const sim::ExperimentConfig config = bench::standardConfig();
            const std::vector<sim::PolicyConfig> policies = {
                sim::policyByName("TP"), sim::policyByName("PCAP")};
            sim::FleetOptions options;
            options.jobs = ctx.fleet.jobs;
            options.metrics = ctx.fleet.metrics;
            options.alerts = ctx.fleet.alerts;
            options.drilldownDir = ctx.fleet.drilldownDir;
            const sim::FleetDriver driver(
                fleetConfig(ctx.fleet.seed, ctx.fleet.hosts), config.sim,
                config.cache, options);
            // Keep the otherwise unused set-up from being elided.
            asm volatile("" : : "r"(&driver), "r"(policies.data())
                         : "memory");
        }
        perSetup.push_back(secondsSince(start) / kPerBatch);
    }
    return median(perSetup);
}

/** One `bench_all --report fleet --hosts N` run through the fleet
 * report, which builds a FleetDriver and calls FleetDriver::run. */
Rep
runFleet(const Options &opt, bool withMetrics)
{
    std::unique_ptr<obs::MetricsRegistry> registry;
    if (withMetrics)
        registry = std::make_unique<obs::MetricsRegistry>();

    Rep rep;
    // The fleet report never queries the shared engine.
    sim::ParallelEvaluation unused(bench::standardConfig(), {});
    bench::ReportContext ctx{unused, {}};
    ctx.fleet.hosts = opt.hosts;
    ctx.fleet.seed = opt.seed;
    ctx.fleet.jobs = opt.jobs;
    ctx.fleet.metrics = registry.get();
    ctx.fleetJson = &rep.out.fleet;
    rep.setupS = fleetSetupSeconds(ctx);

    resetPeakRss();
    const double cpu0 = cpuSeconds();
    const double pool0 =
        static_cast<double>(ThreadPool::globalStats().taskNanos);
    const Clock::time_point start = Clock::now();
    std::ostringstream text;
    fleetReport().run(ctx, text);
    rep.wallS = secondsSince(start);
    rep.cpuS = cpuSeconds() - cpu0;
    rep.poolTaskNs =
        static_cast<double>(ThreadPool::globalStats().taskNanos) - pool0;
    rep.peakRssMiB = peakRssMiB();
    rep.out.reports.emplace_back("fleet", text.str());

    // Each host input is replayed once per policy plus the baseline.
    const Json *accesses = rep.out.fleet.find("accesses");
    const Json *policies = rep.out.fleet.find("policies");
    if (accesses && policies)
        rep.out.replayedAccesses = static_cast<std::uint64_t>(
            accesses->asDouble() *
            static_cast<double>(policies->size() + 1));
    return rep;
}

// -- Traced layer walk ------------------------------------------

/** Busy time and work count of one layer. */
struct Layer
{
    double ns = 0.0;
    double work = 0.0;
};

/** Replay drivers timed by the walk, in report order. */
const std::vector<std::string> kDrivers = {
    "base", "tp", "pcap", "lt", "local_pcap", "oracle", "multistate"};

/** A fresh driver of @p kind with its own learned state. */
struct DriverCell
{
    std::unique_ptr<sim::PolicySession> session;
    std::unique_ptr<sim::PolicyDriver> driver;
    sim::RunResult run;

    explicit DriverCell(const std::string &kind)
    {
        auto sessionOf = [this](const char *policy) -> auto & {
            session = std::make_unique<sim::PolicySession>(
                sim::policyByName(policy));
            return *session;
        };
        if (kind == "base")
            driver = std::make_unique<sim::BaseDriver>();
        else if (kind == "tp")
            driver = std::make_unique<sim::GlobalDriver>(sessionOf("TP"));
        else if (kind == "pcap")
            driver =
                std::make_unique<sim::GlobalDriver>(sessionOf("PCAP"));
        else if (kind == "lt")
            driver = std::make_unique<sim::GlobalDriver>(sessionOf("LT"));
        else if (kind == "local_pcap")
            driver =
                std::make_unique<sim::LocalDriver>(sessionOf("PCAP"));
        else if (kind == "oracle")
            driver = std::make_unique<sim::OracleDriver>();
        else
            driver = std::make_unique<sim::GlobalDriver>(
                sessionOf("PCAP"),
                sim::GlobalDriver::Options{/*multiState=*/true});
    }
};

bool
sameAccuracy(const sim::AccuracyStats &a, const sim::AccuracyStats &b)
{
    return a.opportunities == b.opportunities && a.hits() == b.hits() &&
           a.misses() == b.misses() && a.notPredicted == b.notPredicted;
}

bool
sameRun(const sim::RunResult &a, const sim::RunResult &b)
{
    return a.energy.total() == b.energy.total() &&
           a.shutdowns == b.shutdowns && a.spinUps == b.spinUps &&
           sameAccuracy(a.accuracy, b.accuracy);
}

/** Everything one traced walk measured. */
struct Walk
{
    double wallS = 0.0;
    std::map<std::string, Layer> layers;
    std::vector<double> cellMs;
    std::vector<double> hostMs;
    std::map<std::string, double> reportMs;
    double sweepMs = 0.0;
    std::uint64_t accesses = 0;      ///< post-cache input accesses
    std::uint64_t opportunities = 0; ///< breakeven-exceeding periods
    double hits = 0.0;               ///< file-cache hits (all sizes)
    double share = 1.0; ///< fraction of the workload's units walked
    /** Suite walks: each app's merged replay per driver kind. */
    std::map<std::string, std::map<std::string, sim::RunResult>> runs;

    Layer &layer(const std::string &name) { return layers[name]; }

    /** The share of the walk's wall time its layer timers cover. */
    double coverage() const
    {
        double ns = 0.0;
        for (const auto &[name, layer] : layers)
            ns += layer.ns;
        return ns * 1e-9 / wallS;
    }
};

/**
 * The input layers on one trace: validate, file-cache filter (once
 * per size in @p sizes; the first is the input's own size),
 * ExecutionInput::fromTrace, and ExecutionInput::finalize called
 * once more on the built input. fromTrace validates, filters and
 * finalizes again inside; its whole time is the input-build layer,
 * which counts toward coverage but is not reported on its own.
 */
sim::ExecutionInput
walkInput(Walk &walk, const trace::Trace &trace,
          const std::vector<cache::CacheParams> &sizes)
{
    std::string problem;
    walk.layer("trace.validate").ns +=
        timeNs([&] { problem = trace.validate(); });
    walk.layer("trace.validate").work +=
        static_cast<double>(trace.events().size());
    if (!problem.empty()) {
        std::cerr << "perfbench: invalid trace: " << problem << "\n";
        std::exit(1);
    }
    for (const cache::CacheParams &size : sizes) {
        cache::CacheStats stats;
        walk.layer("cache.filter").ns += timeNs([&] {
            const auto accesses = cache::filterTrace(trace, size, &stats);
            (void)accesses;
        });
        walk.layer("cache.filter").work +=
            static_cast<double>(stats.lookups);
        walk.hits += static_cast<double>(stats.hits);
    }
    sim::ExecutionInput input;
    walk.layer("sim.input_build").ns += timeNs(
        [&] { input = sim::ExecutionInput::fromTrace(trace, sizes[0]); });
    walk.layer("sim.input_build").work += 1;
    walk.layer("sim.finalize").ns += timeNs([&] { input.finalize(); });
    walk.layer("sim.finalize").work +=
        static_cast<double>(input.accesses.size());
    walk.accesses += input.accesses.size();
    return input;
}

void
replayTimed(Walk &walk, sim::SimulationKernel &kernel,
            const std::string &kind, DriverCell &cell,
            const sim::ExecutionInput &input)
{
    sim::RunResult run;
    const double ns = timeNs(
        [&] { run = kernel.runExecution(input, *cell.driver); });
    cell.run.merge(run);
    Layer &layer = walk.layer("sim.replay." + kind);
    layer.ns += ns;
    layer.work += static_cast<double>(input.accesses.size());
}

void
queryCell(sim::EvaluationApi &eval, const sim::Cell &cell)
{
    switch (cell.mode) {
      case sim::CellMode::Table1:
        eval.table1(cell.app);
        break;
      case sim::CellMode::Local:
        eval.localAccuracy(cell.app, cell.policy);
        break;
      case sim::CellMode::Global:
        eval.globalRun(cell.app, cell.policy);
        break;
      case sim::CellMode::MultiState:
        eval.multiStateRun(cell.app, cell.policy);
        break;
      case sim::CellMode::Base:
        eval.baseRun(cell.app);
        break;
      case sim::CellMode::Ideal:
        eval.idealRun(cell.app);
        break;
    }
}

/** Each distinct cell of the suite once, in first-query order. */
std::vector<sim::Cell>
distinctCells()
{
    std::vector<sim::Cell> cells;
    std::set<std::string> seen;
    for (const sim::Cell &cell : suiteCells()) {
        const bool policyFree = cell.mode == sim::CellMode::Table1 ||
                                cell.mode == sim::CellMode::Base ||
                                cell.mode == sim::CellMode::Ideal;
        const std::string key =
            std::to_string(static_cast<int>(cell.mode)) + '\x1f' +
            cell.app + '\x1f' +
            (policyFree ? std::string() : sim::policyCacheKey(cell.policy));
        if (seen.insert(key).second)
            cells.push_back(cell);
    }
    return cells;
}

/**
 * The suite's layers, serially: generation, validation, the file
 * cache at every size the suite filters at, finalize, the input
 * cache, replay under each driver, then a one-thread engine's cells
 * and report renders. The engine reuses the walk's traces (cold) or
 * loads the pre-filled input cache (warm), like the untraced run.
 */
Walk
walkSuite(const Options &opt, const std::string &warmCacheDir,
          Checks &checks)
{
    Walk walk;
    const sim::ExperimentConfig config = suiteConfig(opt.seed);
    std::vector<cache::CacheParams> sizes = {config.cache};
    for (std::size_t kb : {64, 128, 512, 1024, 4096}) {
        cache::CacheParams params = config.cache;
        params.capacityBytes = kb * 1024;
        sizes.push_back(params);
    }
    const std::string storeDir = opt.workDir + "/walk-input-cache";
    std::filesystem::remove_all(storeDir);
    const sim::WorkloadCache store(storeDir);

    auto traces = std::make_shared<sim::TraceStore>();
    const Clock::time_point start = Clock::now();
    for (const std::string &app : workload::standardAppNames()) {
        std::shared_ptr<const std::vector<trace::Trace>> generated;
        const double genNs = timeNs([&] {
            generated =
                traces->traces(opt.seed, app, 0, 1, obs::ScopedMetrics{});
        });
        walk.layer("workload.gen").ns += genNs;
        for (const trace::Trace &trace : *generated)
            walk.layer("workload.gen").work +=
                static_cast<double>(trace.events().size());

        std::vector<sim::ExecutionInput> inputs;
        for (const trace::Trace &trace : *generated)
            inputs.push_back(walkInput(walk, trace, sizes));
        for (const sim::ExecutionInput &input : inputs)
            walk.opportunities +=
                input.countGlobalOpportunities(config.sim.breakeven());

        const sim::WorkloadKey key = config.workloadKey(app);
        double accesses = 0.0;
        for (const sim::ExecutionInput &input : inputs)
            accesses += static_cast<double>(input.accesses.size());
        walk.layer("sim.input_cache.store").ns +=
            timeNs([&] { store.store(key, inputs); });
        walk.layer("sim.input_cache.store").work += accesses;
        std::vector<sim::ExecutionInput> loaded;
        bool hit = false;
        walk.layer("sim.input_cache.load").ns +=
            timeNs([&] { hit = store.load(key, loaded); });
        walk.layer("sim.input_cache.load").work += accesses;
        bool same = hit && loaded.size() == inputs.size();
        for (std::size_t i = 0; same && i < inputs.size(); ++i)
            same = loaded[i].sameContentAs(inputs[i]);
        checks.expect(same, app + " inputs round-trip the input cache");

        // One driver per kind across the app's executions, as a
        // suite cell keeps learned state across executions.
        sim::SimulationKernel kernel(config.sim);
        for (const std::string &kind : kDrivers) {
            DriverCell cell(kind);
            for (const sim::ExecutionInput &input : inputs)
                replayTimed(walk, kernel, kind, cell, input);
            walk.runs[app][kind] = cell.run;
        }
    }

    // Each app once more as a single-app fleet host at paper pacing:
    // the streaming path, bit-equal to the materialized one.
    const sim::FleetDriver fleetDriver({}, config.sim, config.cache);
    const std::vector<sim::PolicyConfig> hostPolicies = {
        sim::policyByName("TP"), sim::policyByName("PCAP")};
    std::vector<sim::HostCellResult> hosts;
    for (const std::string &app : workload::standardAppNames()) {
        workload::HostProfile profile;
        profile.host = hosts.size();
        profile.seed = opt.seed;
        profile.appMix = {{app, 1.0}};
        sim::HostCellResult result;
        const double ns = timeNs(
            [&] { result = fleetDriver.runHost(profile, hostPolicies); });
        walk.hostMs.push_back(ns * 1e-6);
        walk.layer("sim.fleet.host").ns += ns;
        walk.layer("sim.fleet.host").work += 1;
        hosts.push_back(std::move(result));
    }

    sim::ParallelOptions options = suiteOptions(1, warmCacheDir, nullptr);
    if (warmCacheDir.empty())
        options.traceStore = traces;
    sim::ParallelEvaluation eval(config, options);
    walk.layer("sim.engine_setup").ns +=
        timeNs([&] { eval.prefetchInputs(); });
    walk.layer("sim.engine_setup").work += 1;
    for (const sim::Cell &cell : distinctCells()) {
        const double ns = timeNs([&] { queryCell(eval, cell); });
        walk.cellMs.push_back(ns * 1e-6);
        walk.layer("sim.cells").ns += ns;
        walk.layer("sim.cells").work += 1;
    }
    bench::ReportContext ctx{eval, seededFactory(options, opt.seed)};
    ctx.traceStore = options.traceStore.get();
    for (const bench::Report *report : suiteReports()) {
        std::ostringstream text;
        const double ns = timeNs([&] { report->run(ctx, text); });
        walk.reportMs[report->name] = ns * 1e-6;
        if (report->name == "ablation_cache")
            walk.sweepMs = ns * 1e-6;
        walk.layer("bench.report").ns += ns;
        walk.layer("bench.report").work += 1;
    }
    walk.wallS = secondsSince(start);
    std::filesystem::remove_all(storeDir);

    // The walk must have replayed exactly what the suite's cells
    // and the parity hosts did.
    const sim::PolicyConfig tp = sim::policyByName("TP");
    const sim::PolicyConfig pcap = sim::policyByName("PCAP");
    const sim::PolicyConfig lt = sim::policyByName("LT");
    std::size_t h = 0;
    for (const std::string &app : workload::standardAppNames()) {
        auto &runs = walk.runs[app];
        const sim::HostCellResult &host = hosts[h++];
        const bool ok =
            sameRun(runs["base"], eval.baseRun(app)) &&
            sameRun(runs["tp"], eval.globalRun(app, tp).run) &&
            sameRun(runs["pcap"], eval.globalRun(app, pcap).run) &&
            sameRun(runs["lt"], eval.globalRun(app, lt).run) &&
            sameAccuracy(runs["local_pcap"].accuracy,
                         eval.localAccuracy(app, pcap)) &&
            sameRun(runs["oracle"], eval.idealRun(app)) &&
            sameRun(runs["multistate"], eval.multiStateRun(app, pcap).run) &&
            sameRun(host.base, runs["base"]) &&
            sameRun(host.policyRuns[0], runs["tp"]) &&
            sameRun(host.policyRuns[1], runs["pcap"]);
        checks.expect(ok, app + ": walk replays equal the suite's cells "
                                "and the parity host");
    }
    return walk;
}

/** Hosts the fleet walk covers: the first ones of the fleet, so a
 * traced run stays within its time budget at any fleet size. */
constexpr std::uint64_t kWalkHosts = 250;

/**
 * The fleet's layers, serially, host by host: stream generation,
 * validation, the file cache, finalize and replay under each
 * driver (TP, PCAP and Base are the fleet's; the others are timed
 * on the same inputs for comparison), then FleetDriver::runHost on
 * the same profile, whose results must equal the walk's replays.
 */
Walk
walkFleet(const Options &opt, Checks &checks)
{
    Walk walk;
    const sim::ExperimentConfig config = bench::standardConfig();
    const workload::FleetConfig fleet = fleetConfig(opt.seed, opt.hosts);
    const std::vector<sim::PolicyConfig> policies = {
        sim::policyByName("TP"), sim::policyByName("PCAP")};
    const sim::FleetDriver driver(fleet, config.sim, config.cache);
    sim::SimulationKernel kernel(config.sim);

    const std::uint64_t walked = std::min(fleet.hosts, kWalkHosts);
    walk.share = static_cast<double>(walked) /
                 static_cast<double>(fleet.hosts);
    const Clock::time_point start = Clock::now();
    for (std::uint64_t host = 0; host < walked; ++host) {
        const workload::HostProfile profile =
            workload::hostProfile(fleet, host);
        workload::HostWorkloadStream stream(profile);
        std::deque<DriverCell> cells;
        for (const std::string &kind : kDrivers)
            cells.emplace_back(kind);
        for (;;) {
            std::optional<trace::Trace> trace;
            const double genNs = timeNs([&] { trace = stream.next(); });
            walk.layer("workload.gen").ns += genNs;
            if (!trace)
                break;
            walk.layer("workload.gen").work +=
                static_cast<double>(trace->events().size());
            const sim::ExecutionInput input =
                walkInput(walk, *trace, {config.cache});
            walk.opportunities +=
                input.countGlobalOpportunities(config.sim.breakeven());
            for (std::size_t k = 0; k < kDrivers.size(); ++k)
                replayTimed(walk, kernel, kDrivers[k], cells[k], input);
        }

        sim::HostCellResult result;
        const double hostNs =
            timeNs([&] { result = driver.runHost(profile, policies); });
        walk.hostMs.push_back(hostNs * 1e-6);
        walk.layer("sim.fleet.host").ns += hostNs;
        walk.layer("sim.fleet.host").work += 1;
        checks.expect(sameRun(result.base, cells[0].run) &&
                          sameRun(result.policyRuns[0], cells[1].run) &&
                          sameRun(result.policyRuns[1], cells[2].run),
                      "host " + std::to_string(host) +
                          ": runHost equals the walk's replays");
    }
    walk.wallS = secondsSince(start);
    return walk;
}

// -- Metrics ----------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

Json
fingerprint(const Options &opt)
{
    const obs::BuildInfo build = obs::collectBuildInfo();
    Json json = Json::object();
    json["nproc"] = std::thread::hardware_concurrency();
    json["jobs"] = opt.jobs;
    json["compiler"] = build.compiler + " " + build.compilerVersion;
    json["build_type"] = build.buildType;
    json["perf_backend"] =
        obs::PerfCounterGroup::probe().hardware ? "hardware" : "software";
    json["git_describe"] = obs::collectGitDescribe(".");
    return json;
}

Rep
runWorkload(const Options &opt, bool withMetrics)
{
    if (opt.workload == "fleet")
        return runFleet(opt, withMetrics);
    return runSuite(opt, opt.workload == "suite-warm" ? opt.cacheDir : "",
                    withMetrics);
}

double
perUnit(const Walk &walk, const std::string &name)
{
    const auto it = walk.layers.find(name);
    if (it == walk.layers.end() || it->second.work <= 0)
        return 0.0;
    return it->second.ns / it->second.work;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);

    if (opt.fill) {
        // A default suite run with the on-disk cache stores every
        // engine's inputs, the ablation sweep's sizes included.
        Options fill = opt;
        fill.workload = "suite-warm";
        const Rep rep = runSuite(fill, opt.cacheDir, false);
        std::cerr << "perfbench: filled " << opt.cacheDir << " in "
                  << rep.wallS << " s\n";
        return 0;
    }

    std::filesystem::create_directories(opt.workDir);
    Checks checks;
    std::vector<Rep> reps;     // with a registry (the default run)
    std::vector<Rep> bareReps; // without one (traced runs only)
    std::vector<Walk> walks;
    std::vector<double> peakThreads;
    Outputs first;
    bool haveFirst = false;
    auto record = [&](Rep rep, std::vector<Rep> &into,
                      const char *what) {
        if (!haveFirst) {
            first = rep.out;
            haveFirst = true;
            writeDoc(opt.workDir + "/rep-first.json",
                     resultsDoc(opt.seed, rep.out));
        } else {
            if (rep.out.replayedAccesses == 0)
                rep.out.replayedAccesses = first.replayedAccesses;
            checks.sameAs(first, rep.out);
        }
        std::cerr << "perfbench: " << what << ": wall " << rep.wallS << " s, setup "
                  << rep.setupS << " s, cpu " << rep.cpuS << " s\n";
        into.push_back(std::move(rep));
    };

    // An untimed repetition warms the process first: thread pools,
    // page faults, allocator arenas, instruction caches. A tenth of
    // the fleet suffices for that.
    {
        Options warm = opt;
        warm.hosts = std::max<std::uint64_t>(1, opt.hosts / 10);
        const Rep rep = runWorkload(warm, true);
        std::cerr << "perfbench: warm-up: wall " << rep.wallS << " s\n";
    }

    const Clock::time_point start = Clock::now();
    do {
        if (!opt.trace) {
            record(runWorkload(opt, true), reps, "repetition");
            continue;
        }
        {
            ThreadSampler sampler;
            record(runWorkload(opt, true), reps, "repetition");
            peakThreads.push_back(static_cast<double>(sampler.peak()));
        }
        record(runWorkload(opt, false), bareReps,
               "repetition without a registry");
        walks.push_back(opt.workload == "fleet"
                            ? walkFleet(opt, checks)
                            : walkSuite(opt,
                                        opt.workload == "suite-warm"
                                            ? opt.cacheDir
                                            : "",
                                        checks));
        const double coverage = walks.back().coverage();
        checks.expect(std::abs(coverage - 1.0) <= 0.10,
                      "layer timers cover the walk's wall time within "
                      "10 % (" + std::to_string(coverage) + ")");
    } while (secondsSince(start) < opt.seconds);
    checks.expect(first.replayedAccesses > 0,
                  "replayed-access count is positive");

    std::vector<Metric> metrics;
    auto add = [&](const std::string &name, double value,
                   const char *unit) {
        metrics.push_back({name, value, unit});
    };
    auto repMedian = [](const std::vector<Rep> &of,
                        const std::function<double(const Rep &)> &get) {
        std::vector<double> values;
        for (const Rep &rep : of)
            values.push_back(get(rep));
        return median(values);
    };
    const double wall =
        repMedian(reps, [](const Rep &r) { return r.wallS; });
    if (!opt.trace) {
        add("wall_s", wall, "s");
        add("setup_s", repMedian(reps, [](const Rep &r) {
                return r.setupS;
            }), "s");
        // The fleet's set-up is measured beside its run, not in it.
        add("accesses_per_s", repMedian(reps, [](const Rep &r) {
                const double setup = r.out.fleet.isNull() ? r.setupS : 0;
                return static_cast<double>(r.out.replayedAccesses) /
                       (r.wallS - setup);
            }), "1/s");
        add("cpu_s", repMedian(reps, [](const Rep &r) { return r.cpuS; }),
            "s");
        add("peak_rss_mib", repMedian(reps, [](const Rep &r) {
                return r.peakRssMiB;
            }), "MiB");
    } else {
        auto walkMedian =
            [&](const std::function<double(const Walk &)> &get) {
                std::vector<double> values;
                for (const Walk &walk : walks)
                    values.push_back(get(walk));
                return median(values);
            };
        auto perUnitNs = [&](const std::string &layer) {
            return walkMedian(
                [&](const Walk &w) { return perUnit(w, layer); });
        };
        auto percentileMs = [&](bool hosts, double q) {
            return walkMedian([&](const Walk &w) {
                return percentile(hosts ? w.hostMs : w.cellMs, q);
            });
        };
        add("workload.gen_ns_per_event", perUnitNs("workload.gen"), "ns");
        add("trace.validate_ns_per_event", perUnitNs("trace.validate"),
            "ns");
        add("cache.filter_ns_per_lookup", perUnitNs("cache.filter"), "ns");
        add("cache.lookups", walkMedian([](const Walk &w) {
                return w.layers.at("cache.filter").work;
            }), "count");
        add("cache.hit_ratio", walkMedian([](const Walk &w) {
                return w.hits / w.layers.at("cache.filter").work;
            }), "ratio");
        add("cache.sweep_ms",
            walkMedian([](const Walk &w) { return w.sweepMs; }), "ms");
        add("sim.finalize_ns_per_access", perUnitNs("sim.finalize"), "ns");
        add("sim.input_cache.load_ns_per_access",
            perUnitNs("sim.input_cache.load"), "ns");
        add("sim.input_cache.store_ns_per_access",
            perUnitNs("sim.input_cache.store"), "ns");
        for (const std::string &kind : kDrivers)
            add("sim.replay_ns_per_access." + kind,
                perUnitNs("sim.replay." + kind), "ns");
        add("core.predict_ns_per_access", walkMedian([](const Walk &w) {
                return perUnit(w, "sim.replay.pcap") -
                       perUnit(w, "sim.replay.base");
            }), "ns");
        add("sim.cell_ms.p50", percentileMs(false, 0.5), "ms");
        add("sim.cell_ms.p99", percentileMs(false, 0.99), "ms");
        add("sim.fleet.host_ms.p50", percentileMs(true, 0.5), "ms");
        add("sim.fleet.host_ms.p99", percentileMs(true, 0.99), "ms");
        add("sim.accesses_per_idle_period", walkMedian([](const Walk &w) {
                return static_cast<double>(w.accesses) /
                       static_cast<double>(
                           std::max<std::uint64_t>(1, w.opportunities));
            }), "count");
        add("util.pool_busy_frac", repMedian(reps, [&](const Rep &r) {
                return r.poolTaskNs * 1e-9 / (r.wallS * opt.jobs);
            }), "ratio");
        add("util.peak_threads", median(peakThreads), "count");
        add("obs.metrics_cost_frac",
            wall / repMedian(bareReps, [](const Rep &r) {
                return r.wallS;
            }) - 1.0, "ratio");
        for (const bench::Report *report : suiteReports()) {
            const std::string name = report->name;
            add("bench.report_ms." + name, walkMedian([&](const Walk &w) {
                    const auto it = w.reportMs.find(name);
                    return it == w.reportMs.end() ? 0.0 : it->second;
                }), "ms");
        }
        add("bench.trace_overhead_ratio", walkMedian([](const Walk &w) {
                return w.wallS / w.share;
            }) / wall, "ratio");
        add("bench.layer_coverage_frac",
            walkMedian([](const Walk &w) { return w.coverage(); }),
            "ratio");
        add("bench.traced_wall_s",
            walkMedian([](const Walk &w) { return w.wallS; }), "s");
    }

    Json result = Json::object();
    result["workload"] = opt.workload;
    result["seed"] = opt.seed;
    result["trace"] = opt.trace;
    result["reps"] = reps.size();
    result["walks"] = walks.size();
    result["fingerprint"] = fingerprint(opt);
    result["attempted"] = checks.attempted;
    result["failed"] = checks.failed;
    Json &out = result["metrics"];
    out = Json::object();
    for (const Metric &metric : metrics) {
        Json &entry = out[metric.name];
        entry = Json::object();
        entry["value"] = metric.value;
        entry["unit"] = metric.unit;
    }
    result.dump(std::cout);
    std::cout << "\n";
    return 0;
}
