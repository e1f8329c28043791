#include "power/disk.hpp"

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

PowerManagedDisk::PowerManagedDisk(const DiskParams &params,
                                   DiskObserver *observer)
    : params_(params), observer_(observer)
{
    const std::string problem = params_.validate();
    if (!problem.empty())
        fatal("PowerManagedDisk: bad parameters: " + problem);
}

void
PowerManagedDisk::closeResidency(TimeUs time)
{
    if (time > lastChange_) {
        residencyUs_[static_cast<std::size_t>(state_)] +=
            static_cast<std::uint64_t>(time - lastChange_);
    }
    lastChange_ = time;
}

void
PowerManagedDisk::setState(TimeUs time, DiskState next)
{
    if (state_ == next)
        return;
    closeResidency(time);
    ++transitionCount_;
    const DiskState previous = state_;
    state_ = next;
    if (observer_)
        observer_->onDiskStateChange(time, previous, next);
}

void
PowerManagedDisk::accrueTo(TimeUs t)
{
    while (now_ < t) {
        switch (state_) {
          case DiskState::Active: {
            const TimeUs boundary = busyUntil_ < t ? busyUntil_ : t;
            ledger_.add(EnergyCategory::BusyIo,
                        energyJ(params_.busyPowerW, boundary - now_));
            now_ = boundary;
            if (now_ == busyUntil_) {
                // Service complete: a new idle gap opens here.
                setState(busyUntil_, DiskState::Idle);
                gapStart_ = busyUntil_;
                pendingGapJ_ = 0.0;
            }
            break;
          }
          case DiskState::Idle:
            pendingGapJ_ += energyJ(params_.idlePowerW, t - now_);
            now_ = t;
            break;
          case DiskState::LowPower:
            pendingGapJ_ +=
                energyJ(params_.lowPowerIdleW, t - now_);
            now_ = t;
            break;
          case DiskState::Standby:
            pendingGapJ_ += energyJ(params_.standbyPowerW, t - now_);
            now_ = t;
            break;
        }
    }
}

void
PowerManagedDisk::closeGap(TimeUs t)
{
    const TimeUs gap_length = t - gapStart_;
    const EnergyCategory category =
        gap_length > params_.breakevenTime ? EnergyCategory::IdleLong
                                           : EnergyCategory::IdleShort;
    ledger_.add(category, pendingGapJ_);
    pendingGapJ_ = 0.0;
}

TimeUs
PowerManagedDisk::request(TimeUs time, std::uint32_t blocks)
{
    if (finished_)
        panic("PowerManagedDisk::request after finish()");
    if (time < lastRequestTime_)
        panic("PowerManagedDisk::request: time goes backwards");
    if (blocks == 0)
        panic("PowerManagedDisk::request: zero blocks");
    lastRequestTime_ = time;
    ++requestCount_;

    accrueTo(time);

    TimeUs service_start = 0;
    switch (state_) {
      case DiskState::Active:
        // Queue behind the in-flight service.
        service_start = busyUntil_;
        break;
      case DiskState::Idle:
        closeGap(time);
        service_start = time;
        break;
      case DiskState::LowPower:
        // Exit the low-power mode: reload the heads.
        closeGap(time);
        ledger_.add(EnergyCategory::PowerCycle,
                    params_.lowPowerExitEnergyJ);
        service_start = time + params_.lowPowerExitTime;
        totalSpinUpDelay_ += params_.lowPowerExitTime;
        ++wakeUpCount_;
        now_ = service_start;
        if (observer_)
            observer_->onSpinUpServed(time,
                                      params_.lowPowerExitTime);
        break;
      case DiskState::Standby: {
        closeGap(time);
        ++spinUpCount_;
        ++wakeUpCount_;
        ledger_.add(EnergyCategory::PowerCycle, params_.spinUpEnergyJ);
        // If the request lands inside the spin-down transition window
        // (now_ is already past `time`), the spin-up starts only once
        // the spin-down has completed.
        const TimeUs wake_start = time > now_ ? time : now_;
        service_start = wake_start + params_.spinUpTime;
        totalSpinUpDelay_ += service_start - time;
        now_ = service_start;
        if (observer_)
            observer_->onSpinUpServed(time, service_start - time);
        break;
      }
    }

    setState(time, DiskState::Active);
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

    accrueTo(time);
    if (state_ != DiskState::Idle && state_ != DiskState::LowPower)
        return false;

    ledger_.add(EnergyCategory::PowerCycle, params_.shutdownEnergyJ);
    ++shutdownCount_;
    setState(time, DiskState::Standby);
    // The lump sum covers the transition interval; per-time standby
    // accrual resumes after it.
    now_ = time + params_.shutdownTime;
    return true;
}

bool
PowerManagedDisk::enterLowPower(TimeUs time)
{
    if (finished_)
        panic("PowerManagedDisk::enterLowPower after finish()");
    if (time < now_)
        return false;

    accrueTo(time);
    if (state_ != DiskState::Idle)
        return false;

    // Unloading the heads is effectively free; the cost is paid on
    // exit.
    setState(time, DiskState::LowPower);
    ++lowPowerCount_;
    return true;
}

void
PowerManagedDisk::finish(TimeUs time)
{
    if (finished_)
        panic("PowerManagedDisk::finish called twice");
    accrueTo(time);
    if (state_ != DiskState::Active)
        closeGap(time > now_ ? time : now_);
    closeResidency(time);
    finished_ = true;
}

} // namespace pcap::power
