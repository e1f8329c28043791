/**
 * @file
 * Energy ledger: accumulates joules into the four categories the
 * paper's Figure 8 reports — busy I/O, idle below breakeven, idle
 * above breakeven, and power-cycle (spin-down + spin-up) energy.
 */

#ifndef PCAP_POWER_ENERGY_HPP
#define PCAP_POWER_ENERGY_HPP

#include <string>

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

/** Human-readable category name as used in Figure 8 legends. */
const char *energyCategoryName(EnergyCategory category);

/**
 * Per-category energy totals for one simulated policy run.
 *
 * All values are joules. The ledger is policy-agnostic: the simulator
 * decides which category a joule belongs to and calls add().
 */
class EnergyLedger
{
  public:
    /** Add @p joules to @p category. Negative amounts panic. */
    void add(EnergyCategory category, double joules);

    /** Energy accumulated in one category. */
    double get(EnergyCategory category) const;

    /** Sum over all categories. */
    double total() const;

    /** This ledger's total as a fraction of @p baseline's total.
     * Returns 0 when the baseline is empty. */
    double normalizedTo(const EnergyLedger &baseline) const;

    /** Reset all categories to zero. */
    void clear();

    /** Merge another ledger into this one. */
    void merge(const EnergyLedger &other);

  private:
    double busyIo_ = 0.0;
    double idleShort_ = 0.0;
    double idleLong_ = 0.0;
    double powerCycle_ = 0.0;
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
