#include "sim/observer.hpp"

#include <algorithm>

#include "sim/drivers.hpp"
#include "sim/input.hpp"
#include "sim/kernel.hpp"
#include "sim/policy.hpp"
#include "util/logging.hpp"

namespace pcap::sim {

const char *
idleOutcomeName(IdleOutcome outcome)
{
    switch (outcome) {
      case IdleOutcome::Short: return "short";
      case IdleOutcome::NotPredicted: return "not_predicted";
      case IdleOutcome::HitPrimary: return "hit_primary";
      case IdleOutcome::HitBackup: return "hit_backup";
      case IdleOutcome::MissPrimary: return "miss_primary";
      case IdleOutcome::MissBackup: return "miss_backup";
    }
    return "unknown";
}

SimObserver &
nullObserver()
{
    static NullObserver observer;
    return observer;
}

std::vector<TimeUs>
idleLengthBounds(TimeUs breakeven)
{
    std::vector<TimeUs> bounds = {
        millisUs(10.0),  millisUs(100.0), secondsUs(1.0),
        breakeven,       secondsUs(10.0), secondsUs(30.0),
        secondsUs(60.0), secondsUs(300.0)};
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()),
                 bounds.end());
    return bounds;
}

IdleLengthTally::IdleLengthTally(std::vector<TimeUs> bounds)
    : uppers(std::move(bounds)), buckets(uppers.size() + 1, 0)
{
    if (uppers.size() < 2)
        panic("IdleLengthTally: needs at least two bucket bounds");
}

std::uint64_t
IdleLengthTally::count() const
{
    std::uint64_t total = 0;
    for (std::uint64_t n : buckets)
        total += n;
    return total;
}

void
IdleLengthTally::clear()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    sumUs = 0;
}

// ---------------------------------------------------------------
// TeeObserver
// ---------------------------------------------------------------

TeeObserver::TeeObserver(std::vector<SimObserver *> observers)
    : observers_(std::move(observers))
{
    for (SimObserver *observer : observers_) {
        if (!observer)
            panic("TeeObserver: null observer");
        perEvent_ = perEvent_ || observer->perEventCallbacks();
        if (IdleLengthTally *tally = observer->idleLengthTally()) {
            if (tally_)
                panic("TeeObserver: two children keep idle tallies");
            tally_ = tally;
        }
    }
}

void
TeeObserver::onExecutionBegin(const ExecutionInput &input)
{
    for (SimObserver *observer : observers_)
        observer->onExecutionBegin(input);
}

void
TeeObserver::onExecutionEnd(const ExecutionInput &input,
                            const RunResult &result,
                            const ReplayTotals &totals)
{
    for (SimObserver *observer : observers_)
        observer->onExecutionEnd(input, result, totals);
}

void
TeeObserver::onIdlePeriod(const IdlePeriodRecord &record)
{
    for (SimObserver *observer : observers_)
        observer->onIdlePeriod(record);
}

void
TeeObserver::onShutdownLatched(TimeUs at, pred::DecisionSource source)
{
    for (SimObserver *observer : observers_)
        observer->onShutdownLatched(at, source);
}

void
TeeObserver::onShutdownIssued(TimeUs at)
{
    for (SimObserver *observer : observers_)
        observer->onShutdownIssued(at);
}

void
TeeObserver::onShutdownIgnored(TimeUs at)
{
    for (SimObserver *observer : observers_)
        observer->onShutdownIgnored(at);
}

void
TeeObserver::onDiskStateChange(TimeUs time, power::DiskState from,
                               power::DiskState to)
{
    for (SimObserver *observer : observers_)
        observer->onDiskStateChange(time, from, to);
}

void
TeeObserver::onDiskStint(power::DiskState state, TimeUs start,
                         TimeUs chargedFrom, TimeUs end)
{
    for (SimObserver *observer : observers_)
        observer->onDiskStint(state, start, chargedFrom, end);
}

void
TeeObserver::onSpinUpServed(TimeUs time, TimeUs delay)
{
    for (SimObserver *observer : observers_)
        observer->onSpinUpServed(time, delay);
}

// ---------------------------------------------------------------
// ProvenanceObserver
// ---------------------------------------------------------------

static_assert(obs::kProvenancePathTail == core::kProvenancePathDepth,
              "provenance record and core tap disagree on the path "
              "tail depth");

ProvenanceObserver::ProvenanceObserver(obs::ProvenanceSink &sink,
                                       const power::DiskParams &disk)
    : sink_(sink), disk_(disk)
{
}

void
ProvenanceObserver::bind(PolicySession &session,
                         const GlobalDriver *driver)
{
    session.setProvenanceTap(this);
    driver_ = driver;
}

void
ProvenanceObserver::onExecutionBegin(const ExecutionInput &input)
{
    latest_.clear();
    latchValid_ = false;
    latchHasEvent_ = false;
    execution_ = input.execution;
    execEnd_ = input.endTime;
}

void
ProvenanceObserver::onPcapDecision(Pid pid,
                                   const core::PcapDecisionEvent &event)
{
    latest_[pid] = event;
}

void
ProvenanceObserver::onShutdownLatched(TimeUs at,
                                      pred::DecisionSource source)
{
    (void)at;
    (void)source;
    latchValid_ = true;
    latchPid_ = driver_ ? driver_->decisionPid() : -1;
    latchHasEvent_ = false;
    auto it = latest_.find(latchPid_);
    if (it != latest_.end()) {
        latchEvent_ = it->second;
        latchHasEvent_ = true;
    }
}

void
ProvenanceObserver::fillDecision(obs::ProvenanceRecord &out,
                                 const core::PcapDecisionEvent &event)
{
    out.flags |= obs::kProvHasDecision;
    out.signature = event.signature;
    out.pathHash = event.pathHash;
    out.pathLength = event.pathLength;
    out.pathTail = event.pathTail;
    out.pathTailLength = event.pathTailLength;
    out.decisionTimeUs = event.time;
    out.decisionEarliestUs = event.decision.earliest == kTimeNever
                                 ? -1
                                 : event.decision.earliest;
    if (event.predicted)
        out.flags |= obs::kProvPredicted;
    if (event.entryPresent) {
        out.flags |= obs::kProvEntryPresent;
        out.entryHitsBefore = event.entryHitsBefore;
        out.entryTrainingsBefore = event.entryTrainingsBefore;
        out.entryHitsAfter = event.entryHitsAfter;
        out.entryTrainingsAfter = event.entryTrainingsAfter;
    }
}

void
ProvenanceObserver::onIdlePeriod(const IdlePeriodRecord &record)
{
    obs::ProvenanceRecord out;
    out.startUs = record.start;
    out.endUs = record.end;
    out.shutdownUs = record.shutdownAt;
    out.execution = execution_;
    out.outcome = static_cast<std::uint8_t>(record.outcome);
    out.source = static_cast<std::uint8_t>(record.source);

    Pid pid = record.pid;
    const core::PcapDecisionEvent *event = nullptr;
    if (record.pid != kMergedStreamPid) {
        // Per-process stream: the stored event is still the
        // gap-opening one (classification precedes the predictor
        // update for the terminating access).
        auto it = latest_.find(pid);
        if (it != latest_.end())
            event = &it->second;
    } else if (latchValid_) {
        pid = latchPid_;
        if (latchHasEvent_)
            event = &latchEvent_;
    } else if (driver_) {
        // No shutdown latched in this gap: attribute to the live
        // holder of the global decision.
        pid = driver_->decisionPid();
        auto it = latest_.find(pid);
        if (it != latest_.end())
            event = &it->second;
    }
    latchValid_ = false;

    out.pid = pid;
    if (event)
        fillDecision(out, *event);

    if (record.shutdownAt >= 0) {
        // The trailing gap of an execution ends with the disk still
        // down: no spin-up is charged against it.
        out.energyDeltaJ = power::shutdownSavingJ(
            disk_, record.end - record.shutdownAt,
            record.end != execEnd_);
    }
    sink_.write(out);
}

// ---------------------------------------------------------------
// MetricsObserver
// ---------------------------------------------------------------

MetricsObserver::MetricsObserver(obs::ScopedMetrics scope,
                                 TimeUs breakeven, bool trackDisk)
    : scope_(std::move(scope)), trackDisk_(trackDisk),
      idle_(idleLengthBounds(breakeven)),
      executions_(scope_.counter("pcap_sim_executions_total")),
      // The tally's µs bounds as doubles (exact, far below 2^53).
      idleLength_(scope_.histogram(
          "pcap_sim_idle_period_us",
          {idle_.uppers.begin(), idle_.uppers.end()})),
      shutdownsIssued_(scope_.counter(
          "pcap_sim_shutdown_orders_total", {{"status", "issued"}})),
      shutdownsIgnored_(scope_.counter(
          "pcap_sim_shutdown_orders_total", {{"status", "ignored"}})),
      spinUps_(scope_.counter("pcap_disk_spin_ups_total")),
      spinUpDelayUs_(
          scope_.counter("pcap_disk_spin_up_delay_us_total")),
      stateTransitions_(
          scope_.counter("pcap_disk_state_transitions_total"))
{
    for (std::size_t i = 0; i < idlePeriods_.size(); ++i) {
        idlePeriods_[i] = &scope_.counter(
            "pcap_sim_idle_periods_total",
            {{"outcome",
              idleOutcomeName(static_cast<IdleOutcome>(i))}});
    }
    for (std::size_t i = 0; i < stateUs_.size(); ++i) {
        stateUs_[i] = &scope_.counter(
            "pcap_disk_state_us_total",
            {{"state", power::diskStateName(
                           static_cast<power::DiskState>(i))}});
    }
    for (std::size_t i = 0; i < energy_.size(); ++i) {
        energy_[i] = &scope_.gauge(
            "pcap_energy_joules",
            {{"category", power::energyCategorySlug(
                              static_cast<power::EnergyCategory>(i))}});
    }
}

void
MetricsObserver::onExecutionEnd(const ExecutionInput &input,
                                const RunResult &result,
                                const ReplayTotals &totals)
{
    (void)input;
    executions_.inc();

    // Indexed by IdleOutcome. Every classified period is in the
    // idle tally; all but the Short ones also carry an
    // AccuracyStats outcome.
    const AccuracyStats &accuracy = result.accuracy;
    const std::uint64_t periods = idle_.count();
    const std::uint64_t outcomes[] = {
        periods - accuracy.hits() - accuracy.misses() -
            accuracy.notPredicted,
        accuracy.notPredicted,
        accuracy.hitPrimary,
        accuracy.hitBackup,
        accuracy.missPrimary,
        accuracy.missBackup,
    };
    for (std::size_t i = 0; i < idlePeriods_.size(); ++i) {
        if (outcomes[i])
            idlePeriods_[i]->inc(outcomes[i]);
    }
    if (periods) {
        // The µs sum is exact as a double (far below 2^53), so this
        // equals summing each period's length as a double.
        idleLength_.merge(idle_.buckets, periods,
                          static_cast<double>(idle_.sumUs));
        idle_.clear();
    }

    shutdownsIssued_.inc(result.shutdowns);
    shutdownsIgnored_.inc(result.ignoredShutdowns);
    spinUps_.inc(totals.wakeUps);
    spinUpDelayUs_.inc(
        static_cast<std::uint64_t>(result.totalSpinUpDelay));
    if (trackDisk_) {
        stateTransitions_.inc(totals.stateTransitions);
        for (std::size_t i = 0; i < stateUs_.size(); ++i) {
            if (totals.stateUs[i])
                stateUs_[i]->inc(totals.stateUs[i]);
        }
    }
    for (std::size_t i = 0; i < energy_.size(); ++i) {
        energy_[i]->add(result.energy.get(
            static_cast<power::EnergyCategory>(i)));
    }
}

// ---------------------------------------------------------------
// TimelineObserver
// ---------------------------------------------------------------

static_assert(obs::kTimelineStates == 4,
              "timeline state rows must cover power::DiskState");
static_assert(obs::kTimelineOutcomes == 6,
              "timeline outcome rows must cover sim::IdleOutcome");

TimelineObserver::TimelineObserver(const power::DiskParams &disk,
                                   bool trackDisk,
                                   std::size_t buckets)
    : timeline_(buckets), disk_(disk), trackDisk_(trackDisk)
{
}

void
TimelineObserver::bindTableSize(std::function<std::size_t()> query)
{
    tableSize_ = std::move(query);
}

obs::TimelineMeta
TimelineObserver::makeMeta(std::string cell, std::string mode,
                           std::string app, std::string policy)
{
    obs::TimelineMeta meta;
    meta.cell = std::move(cell);
    meta.mode = std::move(mode);
    meta.app = std::move(app);
    meta.policy = std::move(policy);
    meta.stateNames = {"active", "idle", "low_power", "standby"};
    for (std::size_t i = 0; i < obs::kTimelineOutcomes; ++i) {
        meta.outcomeNames.push_back(
            idleOutcomeName(static_cast<IdleOutcome>(i)));
    }
    // Energy rows: per-state draw in DiskState order, plus the
    // spin-down/spin-up/head-load transition costs.
    meta.energyNames = {"active", "idle", "low_power", "standby",
                        "transition"};
    return meta;
}

void
TimelineObserver::sampleTable(TimeUs atUs)
{
    if (tableSize_)
        timeline_.sampleTable(atUs, tableSize_());
}

void
TimelineObserver::onExecutionBegin(const ExecutionInput &input)
{
    (void)input;
    sampleTable(offset_);
}

void
TimelineObserver::onExecutionEnd(const ExecutionInput &input,
                                 const RunResult &result,
                                 const ReplayTotals &totals)
{
    (void)result;
    (void)totals;
    offset_ += input.endTime;
    sampleTable(offset_ > 0 ? offset_ - 1 : 0);
}

void
TimelineObserver::onIdlePeriod(const IdlePeriodRecord &record)
{
    timeline_.countOutcome(
        static_cast<std::size_t>(record.outcome),
        offset_ + record.end);
    sampleTable(offset_ + record.end);
}

void
TimelineObserver::onShutdownIssued(TimeUs at)
{
    timeline_.countShutdown(offset_ + at);
}

void
TimelineObserver::onDiskStateChange(TimeUs time,
                                    power::DiskState from,
                                    power::DiskState to)
{
    if (!trackDisk_)
        return;
    // The transition's lump sum lands at the instant of the change.
    const double transitionJ =
        power::transitionEnergyJ(disk_, from, to);
    if (transitionJ > 0.0) {
        timeline_.addEnergy(obs::kTimelineEnergyTransition,
                            offset_ + time, offset_ + time,
                            transitionJ);
    }
}

void
TimelineObserver::onDiskStint(power::DiskState state, TimeUs start,
                              TimeUs chargedFrom, TimeUs end)
{
    if (!trackDisk_)
        return;
    // The µs before chargedFrom lie in a transition window whose lump
    // sum lands at the change.
    const auto row = static_cast<std::size_t>(state);
    if (end > start)
        timeline_.addStateResidency(row, offset_ + start, offset_ + end);
    if (end > chargedFrom) {
        timeline_.addEnergy(
            row, offset_ + chargedFrom, offset_ + end,
            power::stateEnergyJ(disk_, state, end - chargedFrom));
    }
}

void
TimelineObserver::onSpinUpServed(TimeUs time, TimeUs delay)
{
    (void)delay;
    timeline_.countSpinUp(offset_ + time);
}

} // namespace pcap::sim
