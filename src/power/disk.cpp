#include "power/disk.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace pcap::power {

const char *
diskStateName(DiskState state)
{
    switch (state) {
      case DiskState::Active: return "active";
      case DiskState::Idle: return "idle";
      case DiskState::LowPower: return "low-power";
      case DiskState::Standby: return "standby";
    }
    return "unknown";
}

double
stateEnergyJ(const DiskParams &params, DiskState state, TimeUs us)
{
    const double draw_w[kDiskStates] = {params.busyPowerW,
                                        params.idlePowerW,
                                        params.lowPowerIdleW,
                                        params.standbyPowerW};
    return energyJ(draw_w[indexOf(state)], us);
}

double
transitionEnergyJ(const DiskParams &params, DiskState from,
                  DiskState to)
{
    if (to == DiskState::Standby)
        return params.shutdownEnergyJ;
    if (from == DiskState::Standby)
        return params.spinUpEnergyJ;
    if (from == DiskState::LowPower && to == DiskState::Active)
        return params.lowPowerExitEnergyJ;
    return 0.0;
}

std::array<std::uint64_t, kDiskStates>
DiskAccount::residencyUs() const
{
    std::array<std::uint64_t, kDiskStates> residency{};
    for (std::size_t s = 0; s < kDiskStates; ++s) {
        for (std::uint64_t n : us[s])
            residency[s] += n;
    }
    return residency;
}

EnergyLedger
ledgerOf(const DiskAccount &account, const DiskParams &params)
{
    constexpr std::size_t kCycle = indexOf(EnergyCategory::PowerCycle);
    std::array<double, kEnergyCategories> joules{};
    for (std::size_t s = 0; s < kDiskStates; ++s) {
        const auto from = static_cast<DiskState>(s);
        for (std::size_t c = 0; c < kCycle; ++c) {
            joules[c] += stateEnergyJ(
                params, from, static_cast<TimeUs>(account.us[s][c]));
        }
        for (std::size_t t = 0; t < kDiskStates; ++t) {
            joules[kCycle] +=
                static_cast<double>(account.transitions[s][t]) *
                transitionEnergyJ(params, from,
                                  static_cast<DiskState>(t));
        }
    }
    return EnergyLedger(joules);
}

double
shutdownSavingJ(const DiskParams &params, TimeUs offUs, bool wakes)
{
    const TimeUs standby_us =
        std::max<TimeUs>(0, offUs - params.shutdownTime);
    double cost =
        transitionEnergyJ(params, DiskState::Idle, DiskState::Standby) +
        stateEnergyJ(params, DiskState::Standby, standby_us);
    if (wakes) {
        cost += transitionEnergyJ(params, DiskState::Standby,
                                  DiskState::Active);
    }
    return stateEnergyJ(params, DiskState::Idle, offUs) - cost;
}

PowerManagedDisk::PowerManagedDisk(const DiskParams &params,
                                   DiskObserver *observer)
    : params_(params), observer_(observer)
{
    const std::string problem = params_.validate();
    if (!problem.empty())
        fatal("PowerManagedDisk: bad parameters: " + problem);
}

void
PowerManagedDisk::advance(TimeUs t)
{
    if (state_ == DiskState::Active && t >= busyUntil_) {
        // Service complete: a new idle gap opens here.
        setState(busyUntil_, DiskState::Idle, busyUntil_);
        gapStart_ = busyUntil_;
    }
    now_ = std::max(now_, t);
}

void
PowerManagedDisk::closeStint(TimeUs end)
{
    // The stint's µs before chargedFrom_ lie in a transition window;
    // the rest draw the state's power.
    const TimeUs from = std::min(chargedFrom_, end);
    auto &row = account_.us[indexOf(state_)];
    row[indexOf(EnergyCategory::PowerCycle)] +=
        static_cast<std::uint64_t>(from - lastChange_);
    const auto charged = static_cast<std::uint64_t>(end - from);
    if (state_ == DiskState::Active)
        row[indexOf(EnergyCategory::BusyIo)] += charged;
    else
        gapUs_[indexOf(state_)] += charged;
    if (observer_)
        observer_->onDiskStint(state_, lastChange_, from, end);
    lastChange_ = end;
}

void
PowerManagedDisk::closeGap(TimeUs end)
{
    const EnergyCategory category = end - gapStart_ >
                                            params_.breakevenTime
                                        ? EnergyCategory::IdleLong
                                        : EnergyCategory::IdleShort;
    for (std::size_t s = 0; s < kDiskStates; ++s) {
        account_.us[s][indexOf(category)] += gapUs_[s];
        gapUs_[s] = 0;
    }
}

void
PowerManagedDisk::setState(TimeUs time, DiskState next,
                           TimeUs chargedFrom)
{
    if (state_ == next)
        return;
    closeStint(time);
    ++account_.transitions[indexOf(state_)][indexOf(next)];
    const DiskState previous = state_;
    state_ = next;
    chargedFrom_ = chargedFrom;
    if (observer_)
        observer_->onDiskStateChange(time, previous, next);
}

TimeUs
PowerManagedDisk::request(TimeUs time, std::uint32_t blocks)
{
    if (finished_)
        panic("PowerManagedDisk::request after finish()");
    if (time < lastStimulus_)
        panic("PowerManagedDisk::request: time goes backwards");
    if (blocks == 0)
        panic("PowerManagedDisk::request: zero blocks");
    lastStimulus_ = time;
    ++requestCount_;

    advance(time);

    TimeUs service_start = time;
    switch (state_) {
      case DiskState::Active:
        // Queue behind the in-flight service.
        busyUntil_ += static_cast<TimeUs>(blocks) *
                      params_.serviceTimePerBlock;
        return busyUntil_;
      case DiskState::Idle:
        break;
      case DiskState::LowPower:
        // Exit the low-power mode: reload the heads.
        service_start = time + params_.lowPowerExitTime;
        break;
      case DiskState::Standby:
        // If the request lands inside the spin-down transition window
        // (now_ is already past `time`), the spin-up starts only once
        // the spin-down has completed.
        service_start = now_ + params_.spinUpTime;
        break;
    }
    if (state_ != DiskState::Idle) {
        totalSpinUpDelay_ += service_start - time;
        now_ = service_start;
        if (observer_)
            observer_->onSpinUpServed(time, service_start - time);
    }

    // A wake's lump sum covers the µs until service starts.
    setState(time, DiskState::Active, service_start);
    closeGap(time);
    busyUntil_ = service_start +
                 static_cast<TimeUs>(blocks) *
                     params_.serviceTimePerBlock;
    return busyUntil_;
}

bool
PowerManagedDisk::shutdown(TimeUs time)
{
    if (finished_)
        panic("PowerManagedDisk::shutdown after finish()");
    // Inside a transition window the disk cannot take orders.
    if (time < now_)
        return false;

    advance(time);
    if (state_ != DiskState::Idle && state_ != DiskState::LowPower)
        return false;

    // The lump sum covers the transition window; standby draw
    // starts after it.
    now_ = time + params_.shutdownTime;
    lastStimulus_ = time;
    setState(time, DiskState::Standby, now_);
    return true;
}

bool
PowerManagedDisk::enterLowPower(TimeUs time)
{
    if (finished_)
        panic("PowerManagedDisk::enterLowPower after finish()");
    if (time < now_)
        return false;

    advance(time);
    if (state_ != DiskState::Idle)
        return false;

    // Unloading the heads is effectively free; the cost is paid on
    // exit.
    lastStimulus_ = time;
    setState(time, DiskState::LowPower, time);
    return true;
}

void
PowerManagedDisk::finish(TimeUs time)
{
    if (finished_)
        panic("PowerManagedDisk::finish called twice");
    if (time < lastStimulus_)
        panic("PowerManagedDisk::finish: time goes backwards");
    advance(time);
    closeStint(time);
    if (state_ != DiskState::Active)
        closeGap(now_);
    finished_ = true;
}

EnergyLedger
PowerManagedDisk::ledger() const
{
    if (!finished_)
        panic("PowerManagedDisk::ledger before finish()");
    return ledgerOf(account_, params_);
}

std::uint64_t
PowerManagedDisk::shutdownCount() const
{
    return account_.count(DiskState::Idle, DiskState::Standby) +
           account_.count(DiskState::LowPower, DiskState::Standby);
}

std::uint64_t
PowerManagedDisk::transitionCount() const
{
    std::uint64_t total = 0;
    for (const auto &row : account_.transitions) {
        for (std::uint64_t n : row)
            total += n;
    }
    return total;
}

} // namespace pcap::power
