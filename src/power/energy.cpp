#include "power/energy.hpp"

#include "util/logging.hpp"

namespace pcap::power {

const char *
energyCategoryName(EnergyCategory category)
{
    switch (category) {
      case EnergyCategory::BusyIo: return "Busy I/O";
      case EnergyCategory::IdleShort: return "Idle < Breakeven";
      case EnergyCategory::IdleLong: return "Idle > Breakeven";
      case EnergyCategory::PowerCycle: return "Power cycle";
    }
    return "unknown";
}

void
EnergyLedger::add(EnergyCategory category, double joules)
{
    if (joules < 0.0)
        panic("EnergyLedger::add: negative energy");
    switch (category) {
      case EnergyCategory::BusyIo: busyIo_ += joules; break;
      case EnergyCategory::IdleShort: idleShort_ += joules; break;
      case EnergyCategory::IdleLong: idleLong_ += joules; break;
      case EnergyCategory::PowerCycle: powerCycle_ += joules; break;
    }
}

double
EnergyLedger::get(EnergyCategory category) const
{
    switch (category) {
      case EnergyCategory::BusyIo: return busyIo_;
      case EnergyCategory::IdleShort: return idleShort_;
      case EnergyCategory::IdleLong: return idleLong_;
      case EnergyCategory::PowerCycle: return powerCycle_;
    }
    return 0.0;
}

double
EnergyLedger::total() const
{
    return busyIo_ + idleShort_ + idleLong_ + powerCycle_;
}

double
EnergyLedger::normalizedTo(const EnergyLedger &baseline) const
{
    const double base = baseline.total();
    return base > 0.0 ? total() / base : 0.0;
}

void
EnergyLedger::clear()
{
    busyIo_ = idleShort_ = idleLong_ = powerCycle_ = 0.0;
}

void
EnergyLedger::merge(const EnergyLedger &other)
{
    busyIo_ += other.busyIo_;
    idleShort_ += other.idleShort_;
    idleLong_ += other.idleLong_;
    powerCycle_ += other.powerCycle_;
}

double
energyJ(double power_w, TimeUs duration)
{
    if (duration < 0)
        panic("energyJ: negative duration");
    return power_w * usToSeconds(duration);
}

const char *
energyCategorySlug(EnergyCategory category)
{
    switch (category) {
      case EnergyCategory::BusyIo: return "busy_io";
      case EnergyCategory::IdleShort: return "idle_short";
      case EnergyCategory::IdleLong: return "idle_long";
      case EnergyCategory::PowerCycle: return "power_cycle";
    }
    return "unknown";
}

} // namespace pcap::power
