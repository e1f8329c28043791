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

double
EnergyLedger::total() const
{
    double sum = 0.0;
    for (double joules : joules_)
        sum += joules;
    return sum;
}

double
EnergyLedger::normalizedTo(const EnergyLedger &baseline) const
{
    const double base = baseline.total();
    return base > 0.0 ? total() / base : 0.0;
}

void
EnergyLedger::merge(const EnergyLedger &other)
{
    for (std::size_t i = 0; i < kEnergyCategories; ++i)
        joules_[i] += other.joules_[i];
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
