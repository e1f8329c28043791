/**
 * @file
 * Experiment driver: ties the workload models, the file cache and
 * the simulator together, so every report and integration test asks
 * one object for the paper's numbers.
 *
 * Two implementations share the EvaluationApi interface:
 *
 *  - Evaluation: the original strictly serial driver; the reference
 *    for every number in EXPERIMENTS.md.
 *  - ParallelEvaluation: the experiment engine behind bench_all.
 *    Generates each application's inputs exactly once behind a
 *    thread-safe memoized cache (optionally persisted on disk, see
 *    input_cache.hpp), memoizes every (app x policy x mode) cell,
 *    and can prefetch a batch of cells across a thread pool. Each
 *    cell owns a private PolicySession, so results are identical to
 *    the serial path no matter the thread count.
 */

#ifndef PCAP_SIM_EXPERIMENT_HPP
#define PCAP_SIM_EXPERIMENT_HPP

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/input.hpp"
#include "sim/input_cache.hpp"
#include "sim/kernel.hpp"
#include "sim/policy.hpp"
#include "sim/stats.hpp"

namespace pcap::sim {

struct Cell;
class TraceStore;
class CellStore;
class GlobalDriver;

/** Configuration of a whole evaluation. */
struct ExperimentConfig
{
    std::uint64_t seed = 42;     ///< workload master seed
    cache::CacheParams cache;    ///< paper defaults (256 KB, 30 s)
    SimParams sim;               ///< Fujitsu MHF 2043AT disk

    /**
     * When positive, cap each application at this many executions
     * (fast integration tests); 0 runs the paper's Table 1 counts.
     */
    int maxExecutions = 0;

    /** The workload-cache identity of one application's inputs. */
    WorkloadKey workloadKey(const std::string &app) const;
};

/** One row of Table 1. */
struct Table1Row
{
    int executions = 0;
    std::uint64_t globalIdlePeriods = 0;
    std::uint64_t localIdlePeriods = 0;
    std::uint64_t totalIos = 0;
};

/** Result of a global run plus the learned-state size. */
struct GlobalOutcome
{
    RunResult run;
    std::size_t tableEntries = 0; ///< Table 3
};

/**
 * Stable identity of a PolicyConfig for result memoization: every
 * field that can alter simulation output, canonically serialized.
 */
std::string policyCacheKey(const PolicyConfig &policy);

/**
 * What every experiment driver can answer. All methods are
 * deterministic functions of (config, arguments); implementations
 * may cache aggressively.
 */
class EvaluationApi
{
  public:
    virtual ~EvaluationApi() = default;

    /** The configuration in use. */
    virtual const ExperimentConfig &config() const = 0;

    /** The six application names of Table 1. */
    virtual const std::vector<std::string> &appNames() const = 0;

    /** Post-cache inputs of every execution of @p app (cached). */
    virtual const std::vector<ExecutionInput> &
    inputs(const std::string &app) = 0;

    /** Compute Table 1 for @p app from the generated workload. */
    virtual Table1Row table1(const std::string &app) = 0;

    /** Figure 6: local accuracy of @p policy on @p app. */
    virtual AccuracyStats
    localAccuracy(const std::string &app,
                  const PolicyConfig &policy) = 0;

    /** Figures 7-10: global run of @p policy on @p app. */
    virtual GlobalOutcome globalRun(const std::string &app,
                                    const PolicyConfig &policy) = 0;

    /** Section 7 extension: multi-state global run. */
    virtual GlobalOutcome
    multiStateRun(const std::string &app,
                  const PolicyConfig &policy) = 0;

    /** Figure 8 "Base": no power management (cached). */
    virtual const RunResult &baseRun(const std::string &app) = 0;

    /** Figure 8 "Ideal": the oracle (cached). */
    virtual const RunResult &idealRun(const std::string &app) = 0;

    /**
     * Hint that @p cells are about to be queried: parallel
     * implementations compute them across their worker pool so the
     * subsequent accessor calls are cheap lookups. The serial
     * default is a no-op — every cell is computed (and memoized) on
     * first access anyway.
     */
    virtual void prefetchCells(const std::vector<Cell> &cells)
    {
        (void)cells;
    }

    /** Threads this engine fans work over; the serial default is 1.
     * Callers that fan out engines side by side use it as their
     * width. */
    virtual unsigned jobs() const { return 1; }
};

/**
 * Lazily generates, caches and evaluates the workload — strictly
 * serially, on the calling thread. Inputs are deterministic
 * functions of the config seed, so every run reproduces identical
 * numbers.
 */
class Evaluation : public EvaluationApi
{
  public:
    /**
     * @p traceStore optionally shares raw workload traces with
     * other evaluations (see trace_store.hpp): an ablation sweep
     * over cache or disk parameters generates each application's
     * traces once and re-runs only the file-cache filter per
     * configuration. Inputs are bit-identical either way.
     */
    explicit Evaluation(ExperimentConfig config = {},
                        std::shared_ptr<TraceStore> traceStore = {});

    // Compatibility aliases: these used to be nested types.
    using Table1Row = sim::Table1Row;
    using GlobalOutcome = sim::GlobalOutcome;

    const ExperimentConfig &config() const override
    {
        return config_;
    }

    const std::vector<std::string> &appNames() const override
    {
        return appNames_;
    }

    const std::vector<ExecutionInput> &
    inputs(const std::string &app) override;

    sim::Table1Row table1(const std::string &app) override;

    AccuracyStats localAccuracy(const std::string &app,
                                const PolicyConfig &policy) override;

    sim::GlobalOutcome globalRun(const std::string &app,
                                 const PolicyConfig &policy) override;

    sim::GlobalOutcome
    multiStateRun(const std::string &app,
                  const PolicyConfig &policy) override;

    const RunResult &baseRun(const std::string &app) override;

    const RunResult &idealRun(const std::string &app) override;

  private:
    ExperimentConfig config_;
    std::vector<std::string> appNames_;
    std::shared_ptr<TraceStore> traceStore_;
    std::map<std::string, std::vector<ExecutionInput>> inputs_;
    std::map<std::string, RunResult> baseRuns_;
    std::map<std::string, RunResult> idealRuns_;
};

/** How one simulation cell evaluates its inputs. */
enum class CellMode {
    Table1,     ///< workload statistics only
    Local,      ///< per-process accuracy (Figure 6)
    Global,     ///< full multiprocess run (Figures 7-10)
    MultiState, ///< Section 7 extension
    Base,       ///< no power management
    Ideal,      ///< oracle
};

/** One independent unit of work for ParallelEvaluation::prefetch. */
struct Cell
{
    CellMode mode = CellMode::Global;
    std::string app;
    PolicyConfig policy; ///< ignored by Table1/Base/Ideal cells
};

/** Options of the parallel experiment engine. */
struct ParallelOptions
{
    /** Worker threads for prefetch() and generation; 1 = inline. */
    unsigned jobs = 1;

    /**
     * On-disk workload cache directory; empty disables persistence
     * (inputs are still memoized in memory).
     */
    std::string cacheDir;

    /**
     * When non-empty, every simulation cell runs with a provenance
     * observer attached and writes one record per classified
     * idle period into this directory (created if needed), one
     * binary file per cell named <stem>.prov.bin (see cellFileStem;
     * base and ideal cells have no policy part and no decisions).
     * pcap_explain --jsonl renders them as JSONL. Empty disables
     * provenance entirely (the default path is untouched).
     */
    std::string provenanceDir;

    /**
     * When non-empty, every simulation cell folds its replay into a
     * simulated-time sim::TimelineObserver and writes the result
     * into this directory (created if needed): a pcap-timeline-v1
     * JSON document plus a CSV mirror per (mode, app, policy) cell,
     * named <stem>.timeline.{json,csv}. Empty disables timelines
     * (the default path is untouched).
     */
    std::string timelineDir;

    /**
     * Registry every layer records into, or null to disable
     * instrumentation. Each cell writes through a ScopedMetrics
     * labelled {config, mode, app, policy, policy_hash}, so parallel
     * cells touch disjoint series; the registry must outlive the
     * evaluation.
     */
    obs::MetricsRegistry *metrics = nullptr;

    /**
     * Shared raw-trace memo (see trace_store.hpp), or null to
     * generate traces privately. Evaluations over different cache
     * or disk configurations share one store so an ablation sweep
     * generates each application's traces once; inputs are
     * bit-identical either way because generation depends only on
     * (seed, app, maxExecutions).
     */
    std::shared_ptr<TraceStore> traceStore;

    /**
     * Shared finished-cell memo (see cell_store.hpp), or null to
     * compute cells privately. Engines over an *identical* config
     * then replay each (mode, app, policy) cell once between them —
     * the keys embed the full canonical config string, so distinct
     * configurations never collide. Ignored while provenanceDir or
     * timelineDir is set: a store hit skips the replay and with it
     * the cell's file artifacts, which those options promise.
     */
    std::shared_ptr<CellStore> cellStore;
};

/**
 * The parallel experiment engine. Thread-safe: any method may be
 * called from any thread; equal queries are computed once and
 * memoized. prefetch() fans a batch of cells across a thread pool
 * and joins — afterwards the plain accessors are cheap lookups.
 *
 * Results are bit-identical to Evaluation's: inputs are the same
 * deterministic function of the seed (whether generated, memoized or
 * deserialized from the workload cache), and each cell runs the same
 * serial simulator on a private PolicySession.
 */
class ParallelEvaluation : public EvaluationApi
{
  public:
    explicit ParallelEvaluation(ExperimentConfig config = {},
                                ParallelOptions options = {});

    const ExperimentConfig &config() const override
    {
        return config_;
    }

    const std::vector<std::string> &appNames() const override
    {
        return appNames_;
    }

    const std::vector<ExecutionInput> &
    inputs(const std::string &app) override;

    sim::Table1Row table1(const std::string &app) override;

    AccuracyStats localAccuracy(const std::string &app,
                                const PolicyConfig &policy) override;

    sim::GlobalOutcome globalRun(const std::string &app,
                                 const PolicyConfig &policy) override;

    sim::GlobalOutcome
    multiStateRun(const std::string &app,
                  const PolicyConfig &policy) override;

    const RunResult &baseRun(const std::string &app) override;

    const RunResult &idealRun(const std::string &app) override;

    /**
     * Compute every cell (and the inputs they need) across the
     * worker pool, then join. Duplicate cells cost nothing extra.
     */
    void prefetch(const std::vector<Cell> &cells);

    void prefetchCells(const std::vector<Cell> &cells) override
    {
        prefetch(cells);
    }

    unsigned jobs() const override { return options_.jobs; }

    /** Make every application's inputs resident, in parallel. */
    void prefetchInputs();

    /** The engine's workload cache (for hit/miss reporting). */
    const WorkloadCache &workloadCache() const { return cache_; }

    /** Applications generated from seed (disk-cache misses). */
    std::uint64_t generatedApps() const { return generated_; }

  private:
    template <typename T> struct Memo
    {
        std::once_flag once;
        T value{};
    };

    /** Memo slot for @p key in @p map, created under the lock. */
    template <typename T>
    std::shared_ptr<Memo<T>>
    slot(std::map<std::string, std::shared_ptr<Memo<T>>> &map,
         const std::string &key);

    /**
     * The memoized value of one cell: @p compute runs once per
     * engine and @p memoKey, or once per process through the shared
     * CellStore (@p shared, keyed by mode, app and policy) when
     * cellStoreUsable().
     */
    template <typename T, typename Compute>
    const T &
    memoCell(std::map<std::string, std::shared_ptr<Memo<T>>> &map,
             const std::string &memoKey,
             T (CellStore::*shared)(const std::string &,
                                    const std::function<T()> &),
             const char *mode, const std::string &app,
             const PolicyConfig *policy, Compute compute);

    void computeCell(const Cell &cell);

    /**
     * File stem identifying one cell:
     * <mode>-<app>[-<label>-<policy hash>]; the hash disambiguates
     * sweep variants sharing a label.
     */
    std::string cellFileStem(const char *mode, const std::string &app,
                             const PolicyConfig *policy) const;

    /**
     * Replay one cell of @p app under @p driver: its span and perf
     * region, its observers — a MetricsObserver when a registry is
     * attached, the cell's CellRecording when provenance or
     * timelines are on — the kernel run under the
     * pcap_cell_wall_seconds lap, then the recording's files and
     * (with a @p session) the session metrics. The recording binds
     * to @p session and, when given, to @p global for merged-stream
     * attribution.
     */
    RunResult replayCell(const char *mode, const std::string &app,
                         const PolicyConfig *policy,
                         PolicyDriver &driver,
                         PolicySession *session = nullptr,
                         const GlobalDriver *global = nullptr);

    /** Scope labelled {config, mode, app[, policy, policy_hash]};
     * disabled when no registry is attached. */
    obs::ScopedMetrics cellScope(const char *mode,
                                 const std::string &app,
                                 const PolicyConfig *policy) const;

    /** Scope labelled {config, app} for input-level metrics. */
    obs::ScopedMetrics appScope(const std::string &app) const;

    /** True when results may round-trip through the shared
     * CellStore (attached, and no per-cell file artifacts). */
    bool cellStoreUsable() const;

    ExperimentConfig config_;
    ParallelOptions options_;
    std::vector<std::string> appNames_;
    WorkloadCache cache_;
    /** Canonical serialization of every config field that can alter
     * results — the CellStore key prefix. */
    std::string configKey_;
    /** 16-hex digest of configKey_ — the "config" label value
     * separating ablation evaluations from the paper-default one in
     * the shared registry. */
    std::string configHash_;

    std::mutex mutex_; ///< guards the maps below (not the memos)
    std::map<std::string,
             std::shared_ptr<Memo<std::vector<ExecutionInput>>>>
        inputs_;
    std::map<std::string, std::shared_ptr<Memo<AccuracyStats>>>
        locals_;
    std::map<std::string, std::shared_ptr<Memo<sim::GlobalOutcome>>>
        globals_;
    std::map<std::string, std::shared_ptr<Memo<RunResult>>> runs_;
    std::atomic<std::uint64_t> generated_{0};
};

} // namespace pcap::sim

#endif // PCAP_SIM_EXPERIMENT_HPP
