/**
 * @file
 * Energy ledger: joules in the four categories the paper's Figure 8
 * reports — busy I/O, idle below breakeven, idle above breakeven, and
 * power-cycle (spin-down + spin-up) energy. A disk run's ledger is
 * the closed form of its integer account (power::ledgerOf, disk.hpp).
 */

#ifndef PCAP_POWER_ENERGY_HPP
#define PCAP_POWER_ENERGY_HPP

#include <array>

#include "power/disk_params.hpp"
#include "util/types.hpp"

namespace pcap::power {

/** The four energy categories of Figure 8. */
enum class EnergyCategory {
    BusyIo,        ///< disk servicing requests
    IdleShort,     ///< spinning idle inside gaps <= breakeven
    IdleLong,      ///< spinning idle or standby inside gaps > breakeven
    PowerCycle,    ///< spin-down + spin-up transitions
};

/** Number of EnergyCategory values. */
constexpr std::size_t kEnergyCategories = 4;

/** Human-readable category name as used in Figure 8 legends. */
const char *energyCategoryName(EnergyCategory category);

/** Array index of a DiskState or EnergyCategory. */
template <typename Enum>
constexpr std::size_t
indexOf(Enum value)
{
    return static_cast<std::size_t>(value);
}

/** Per-category energy totals (joules) of one simulated policy run. */
class EnergyLedger
{
  public:
    EnergyLedger() = default;
    explicit EnergyLedger(
        const std::array<double, kEnergyCategories> &joules)
        : joules_(joules)
    {
    }

    /** Energy in one category. */
    double
    get(EnergyCategory category) const
    {
        return joules_[indexOf(category)];
    }

    /** Sum over all categories. */
    double total() const;

    /** This ledger's total as a fraction of @p baseline's total.
     * Returns 0 when the baseline is empty. */
    double normalizedTo(const EnergyLedger &baseline) const;

    /** Merge another ledger into this one. */
    void merge(const EnergyLedger &other);

  private:
    std::array<double, kEnergyCategories> joules_{};
};

/**
 * Helpers converting (power, duration) into joules. Durations are in
 * simulated microseconds.
 */
double energyJ(double power_w, TimeUs duration);

/** Metric-friendly category slug ("busy_io", "idle_short", ...). */
const char *energyCategorySlug(EnergyCategory category);

} // namespace pcap::power

#endif // PCAP_POWER_ENERGY_HPP
