/**
 * @file
 * Simulation observer layer: passive instrumentation hooks threaded
 * through the replay kernel and the power-managed disk.
 *
 * SimObserver extends power::DiskObserver (state transitions,
 * spin-up services) with replay-level callbacks: execution
 * boundaries, classified idle periods, and shutdown orders
 * issued/ignored. Observers never influence the simulation — the
 * kernel produces bit-identical results whether a NullObserver or
 * the provenance observer is attached. An observer
 * that needs only per-execution totals (MetricsObserver) opts out
 * of the per-event callbacks, and the kernel then replays on its
 * uninstrumented path.
 */

#ifndef PCAP_SIM_OBSERVER_HPP
#define PCAP_SIM_OBSERVER_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/provenance_tap.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/timeline.hpp"
#include "power/disk.hpp"
#include "power/disk_params.hpp"
#include "pred/predictor.hpp"
#include "util/types.hpp"

namespace pcap::sim {

struct ExecutionInput;
class GlobalDriver;
class PolicySession;
struct RunResult;

/**
 * How one idle period was classified — the taxonomy behind the
 * paper's accuracy figures, plus Short for sub-breakeven periods in
 * which no shutdown fired (they carry no prediction outcome and are
 * excluded from AccuracyStats, but per-period instrumentation wants
 * to see them).
 */
enum class IdleOutcome : std::uint8_t {
    Short,        ///< gap <= breakeven, no shutdown fired
    NotPredicted, ///< opportunity missed without a shutdown
    HitPrimary,   ///< paying shutdown, primary prediction
    HitBackup,    ///< paying shutdown, backup timeout
    MissPrimary,  ///< losing shutdown, primary prediction
    MissBackup,   ///< losing shutdown, backup timeout
};

/** Stable lower-case name ("hit_primary", ...). */
const char *idleOutcomeName(IdleOutcome outcome);

/** One classified idle period, as the kernel tallied it. */
struct IdlePeriodRecord
{
    /** Owning stream: a process pid for the local (per-process)
     * replay, kMergedStreamPid for the merged global stream. */
    Pid pid = 0;
    TimeUs start = 0;      ///< last access (gap opens)
    TimeUs end = 0;        ///< next access or stream end
    TimeUs shutdownAt = -1; ///< spin-down time inside the gap, or -1
    /** Attribution of the shutdown (None when no shutdown fired). */
    pred::DecisionSource source = pred::DecisionSource::None;
    IdleOutcome outcome = IdleOutcome::Short;
};

/**
 * Per-execution totals the kernel keeps on every replay and
 * hands to SimObserver::onExecutionEnd — what an observer that
 * needs only totals reads instead of per-event callbacks.
 */
struct ReplayTotals
{
    /** Integer µs per power::DiskState (indexed by the enum); they
     * sum to the execution's end time. A diskless driver's unused
     * disk idles throughout. */
    std::array<std::uint64_t, power::kDiskStates> stateUs{};
    /** Disk state changes (one per onDiskStateChange). */
    std::uint64_t stateTransitions = 0;
    /** Spin-ups plus low-power head loads (one per
     * onSpinUpServed). */
    std::uint64_t wakeUps = 0;
};

/**
 * Idle-length distribution of one execution's classified periods
 * (every outcome, Short included), bucketed by IdleSink for an
 * observer that asks for it through SimObserver::idleLengthTally —
 * a short bucket scan and two integer adds per period, not a
 * callback. Bounds and sum are integer µs.
 */
struct IdleLengthTally
{
    /** @param bounds At least two strictly ascending inclusive
     * bucket bounds; an open overflow bucket is appended. */
    explicit IdleLengthTally(std::vector<TimeUs> bounds);

    void
    add(TimeUs length)
    {
        // Nearly all periods of a replay are gaps inside an I/O
        // burst and land in the first two buckets: one branch that
        // almost always goes the same way finds those, without a
        // data-dependent one between the two.
        std::size_t index = 2;
        if (length <= uppers[1]) {
            index = length > uppers[0];
        } else {
            while (index < uppers.size() && length > uppers[index])
                ++index;
        }
        ++buckets[index];
        sumUs += length;
    }

    /** Periods tallied (the buckets' total). */
    std::uint64_t count() const;

    /** Zero the buckets and the sum. */
    void clear();

    std::vector<TimeUs> uppers;
    std::vector<std::uint64_t> buckets; ///< overflow last
    TimeUs sumUs = 0;
};

/**
 * The idle-length bucket bounds of the pcap_sim_idle_period_us
 * histogram and the idle_histogram report, in simulated µs:
 * sub-second decades, @p breakeven, and a coarse tail. Sorted and
 * deduplicated, because an ablated breakeven may coincide with (or
 * cross) the fixed decades.
 */
std::vector<TimeUs> idleLengthBounds(TimeUs breakeven);

/**
 * Hook interface of the replay kernel. All callbacks default to
 * no-ops; implementations override what they need. Callbacks fire
 * on the simulating thread, in replay order.
 */
class SimObserver : public power::DiskObserver
{
  public:
    /**
     * Whether this observer needs the per-event callbacks (idle
     * periods, shutdown latches and orders, disk transitions). One
     * that answers false gets only onExecutionBegin and
     * onExecutionEnd, and a kernel whose observer answers false
     * replays on its uninstrumented path.
     */
    virtual bool perEventCallbacks() const { return true; }

    /** The tally IdleSink fills with every classified period's
     * length, or null (the default) for none. */
    virtual IdleLengthTally *idleLengthTally() { return nullptr; }

    /** Replay of one execution begins. */
    virtual void onExecutionBegin(const ExecutionInput &input)
    {
        (void)input;
    }

    /** Replay of one execution finished with @p result; @p totals
     * are the kernel's per-execution tallies. */
    virtual void onExecutionEnd(const ExecutionInput &input,
                                const RunResult &result,
                                const ReplayTotals &totals)
    {
        (void)input;
        (void)result;
        (void)totals;
    }

    /** An idle period was classified and tallied. */
    virtual void onIdlePeriod(const IdlePeriodRecord &record)
    {
        (void)record;
    }

    /**
     * The kernel latched a standing shutdown decision for the
     * current idle gap: a spin-down will fire at @p at attributed to
     * @p source (unless the disk cannot serve it). Fires at most
     * once per gap, before the gap is classified.
     */
    virtual void onShutdownLatched(TimeUs at,
                                   pred::DecisionSource source)
    {
        (void)at;
        (void)source;
    }

    /** The power manager's spin-down order was accepted at @p at. */
    virtual void onShutdownIssued(TimeUs at) { (void)at; }

    /** A spin-down order could not be served (disk busy past the
     * gap, or already down). */
    virtual void onShutdownIgnored(TimeUs at) { (void)at; }
};

/** The do-nothing observer every uninstrumented run shares. */
class NullObserver final : public SimObserver
{
  public:
    bool perEventCallbacks() const override { return false; }
};

/** Shared NullObserver instance (default kernel observer). */
SimObserver &nullObserver();

/**
 * Fans every callback out to a list of observers, in order — e.g. a
 * provenance observer plus a metrics collector on the same run. It needs
 * per-event callbacks when any child does, and passes on the idle
 * tally of the one child that keeps one. Null entries, and two
 * children with idle tallies, are rejected; the observers must
 * outlive the tee.
 */
class TeeObserver final : public SimObserver
{
  public:
    explicit TeeObserver(std::vector<SimObserver *> observers);

    bool perEventCallbacks() const override { return perEvent_; }
    IdleLengthTally *idleLengthTally() override { return tally_; }

    void onExecutionBegin(const ExecutionInput &input) override;
    void onExecutionEnd(const ExecutionInput &input,
                        const RunResult &result,
                        const ReplayTotals &totals) override;
    void onIdlePeriod(const IdlePeriodRecord &record) override;
    void onShutdownLatched(TimeUs at,
                           pred::DecisionSource source) override;
    void onShutdownIssued(TimeUs at) override;
    void onShutdownIgnored(TimeUs at) override;
    void onDiskStateChange(TimeUs time, power::DiskState from,
                           power::DiskState to) override;
    void onDiskStint(power::DiskState state, TimeUs start,
                     TimeUs chargedFrom, TimeUs end) override;
    void onSpinUpServed(TimeUs time, TimeUs delay) override;

  private:
    std::vector<SimObserver *> observers_;
    bool perEvent_ = false;
    IdleLengthTally *tally_ = nullptr;
};

/**
 * The provenance join point: correlates the PCAP predictor's
 * decision events (via core::ProvenanceTap) with the kernel's
 * classified idle periods (via SimObserver) and writes one
 * obs::ProvenanceRecord per period straight to its sink.
 *
 * Attribution: per-process records (LocalDriver) join on the
 * record's own pid — classification precedes the predictor update
 * for the terminating access, so the stored decision event is still
 * the gap-opening one. Merged-stream records join through the
 * shutdown latch (the pid holding the bound GlobalDriver's decision
 * when the kernel latched the spin-down); unlatched merged gaps fall
 * back to the live winner at classification time.
 *
 * The energy delta per shutdown period is what the spin-down was
 * worth against leaving the disk idling (power::shutdownSavingJ over
 * the off-time; no spin-up is charged to a gap that runs to the end
 * of the execution).
 */
class ProvenanceObserver final : public SimObserver,
                                 public core::ProvenanceTap
{
  public:
    /** @param sink Receives every record; must outlive the
     * observer. */
    ProvenanceObserver(obs::ProvenanceSink &sink,
                       const power::DiskParams &disk);

    /**
     * The one place a replay is wired to provenance: route
     * @p session's decision events (and table evictions) to this
     * observer and, when @p driver is given, attribute merged-stream
     * records to the pid holding its global decision (without one
     * they carry pid -1). Both must outlive the replay.
     */
    void bind(PolicySession &session,
              const GlobalDriver *driver = nullptr);

    // SimObserver hooks
    void onExecutionBegin(const ExecutionInput &input) override;
    void onIdlePeriod(const IdlePeriodRecord &record) override;
    void onShutdownLatched(TimeUs at,
                           pred::DecisionSource source) override;

    // core::ProvenanceTap hook
    void onPcapDecision(Pid pid,
                        const core::PcapDecisionEvent &event) override;

  private:
    /** Copy a decision event's evidence into @p out. */
    static void fillDecision(obs::ProvenanceRecord &out,
                             const core::PcapDecisionEvent &event);

    obs::ProvenanceSink &sink_;
    power::DiskParams disk_;
    const GlobalDriver *driver_ = nullptr;

    /** Latest decision event per process, current execution. */
    std::unordered_map<Pid, core::PcapDecisionEvent> latest_;

    bool latchValid_ = false;
    Pid latchPid_ = -1;
    bool latchHasEvent_ = false;
    core::PcapDecisionEvent latchEvent_;

    std::int32_t execution_ = 0;
    TimeUs execEnd_ = 0;
};

/**
 * Folds each replayed execution into ScopedMetrics series — the
 * kernel- and disk-layer instrumentation of the metrics subsystem.
 *
 * All recorded quantities are functions of the simulation alone
 * (simulated microseconds, event counts, joules), so a run's series
 * are byte-identical across machines, thread counts and workload
 * cache states. Metric handles are resolved once here in the
 * constructor. The observer takes no per-event callbacks: at
 * onExecutionEnd it reads the execution's totals — outcome counts
 * from AccuracyStats, shutdown and spin-up counts from the
 * RunResult, residency and transitions from ReplayTotals,
 * idle lengths from the tally IdleSink filled — and adds them to
 * the shared atomics once. A kernel observed by it alone replays
 * on the uninstrumented path.
 */
class MetricsObserver final : public SimObserver
{
  public:
    /**
     * @param scope     Cell-scoped handle (labels identify the run).
     * @param breakeven Histogram boundary anchor (see
     *                  idleLengthBounds).
     * @param trackDisk False for diskless replays (local accuracy),
     *                  whose executions would otherwise read as one
     *                  long Idle residency.
     */
    MetricsObserver(obs::ScopedMetrics scope, TimeUs breakeven,
                    bool trackDisk = true);

    bool perEventCallbacks() const override { return false; }
    IdleLengthTally *idleLengthTally() override { return &idle_; }

    /** Add the execution's totals to the shared series and clear
     * the idle tally. */
    void onExecutionEnd(const ExecutionInput &input,
                        const RunResult &result,
                        const ReplayTotals &totals) override;

  private:
    obs::ScopedMetrics scope_;
    bool trackDisk_;
    IdleLengthTally idle_; ///< the current execution's periods

    obs::Counter &executions_;
    std::array<obs::Counter *, 6> idlePeriods_;
    obs::Histogram &idleLength_;
    obs::Counter &shutdownsIssued_;
    obs::Counter &shutdownsIgnored_;
    obs::Counter &spinUps_;
    obs::Counter &spinUpDelayUs_;
    std::array<obs::Counter *, power::kDiskStates> stateUs_;
    obs::Counter &stateTransitions_;
    /** pcap_energy_joules, indexed by power::EnergyCategory. */
    std::array<obs::Gauge *, 4> energy_;
};

/**
 * Folds one cell's replay into an obs::Timeline over *simulated*
 * time: power-state residency, energy by category (per-state draw
 * plus transition costs), idle-period outcomes, shutdowns/spin-ups
 * and sampled prediction-table size. The bench_all --timeline-dir
 * sink; answers "when during the run" where MetricsObserver answers
 * "how much in total".
 *
 * Executions are laid end to end on one continuous timeline (an
 * execution beginning at simulated 0 continues at the accumulated
 * offset of every prior execution's end time), so a cell's document
 * covers the whole replay. Energy is charged through the power
 * functions: a stint's draw is spread linearly over the µs after its
 * transition window (DiskObserver::onDiskStint's chargedFrom),
 * and a transition's lump sum lands at the instant of the change. The
 * energy rows therefore sum to the run's EnergyLedger total, but
 * categorize by state, not by the paper's Figure 8 gap taxonomy.
 */
class TimelineObserver final : public SimObserver
{
  public:
    /**
     * @param disk      The disk whose energy the timeline charges.
     * @param trackDisk False for diskless replays (local accuracy):
     *                  skips residency and energy, keeps outcomes.
     * @param buckets   Timeline resolution (even, >= 2).
     */
    explicit TimelineObserver(const power::DiskParams &disk,
                              bool trackDisk = true,
                              std::size_t buckets = 256);

    /** Bind the prediction-table size query (e.g. a session's
     * tableEntries()); sampled at execution boundaries and after
     * every classified idle period. Optional. */
    void bindTableSize(std::function<std::size_t()> query);

    void onExecutionBegin(const ExecutionInput &input) override;
    void onExecutionEnd(const ExecutionInput &input,
                        const RunResult &result,
                        const ReplayTotals &totals) override;
    void onIdlePeriod(const IdlePeriodRecord &record) override;
    void onShutdownIssued(TimeUs at) override;
    void onDiskStateChange(TimeUs time, power::DiskState from,
                           power::DiskState to) override;
    void onDiskStint(power::DiskState state, TimeUs start,
                     TimeUs chargedFrom, TimeUs end) override;
    void onSpinUpServed(TimeUs time, TimeUs delay) override;

    const obs::Timeline &timeline() const { return timeline_; }

    /** Meta block with the canonical sim-side name tables (disk
     * states, idle outcomes, energy rows) filled in. */
    static obs::TimelineMeta makeMeta(std::string cell,
                                      std::string mode,
                                      std::string app,
                                      std::string policy);

  private:
    void sampleTable(TimeUs atUs);

    obs::Timeline timeline_;
    power::DiskParams disk_;
    bool trackDisk_;
    std::function<std::size_t()> tableSize_;

    TimeUs offset_ = 0; ///< summed end times of prior executions
};

} // namespace pcap::sim

#endif // PCAP_SIM_OBSERVER_HPP
