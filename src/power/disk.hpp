/**
 * @file
 * Online power-managed disk state machine.
 *
 * The disk is driven by two kinds of stimuli: requests (disk accesses
 * surviving the file cache) and shutdown orders from a power-management
 * policy. It accounts energy into the EnergyLedger categories of
 * Figure 8 and tracks shutdown/spin-up statistics. Both the trace
 * simulator and the interactive examples drive this one class, so the
 * energy arithmetic lives in exactly one place.
 */

#ifndef PCAP_POWER_DISK_HPP
#define PCAP_POWER_DISK_HPP

#include <array>
#include <cstdint>

#include "power/disk_params.hpp"
#include "power/energy.hpp"
#include "util/types.hpp"

namespace pcap::power {

/** Observable high-level state of the disk. */
enum class DiskState {
    Active,   ///< servicing a request
    Idle,     ///< spinning, no request
    LowPower, ///< spinning, heads unloaded (extension, Section 7)
    Standby,  ///< spun down
};

/** Number of DiskState values (residency arrays are indexed by the
 * enum). */
constexpr std::size_t kDiskStates = 4;

/** Human-readable state name. */
const char *diskStateName(DiskState state);

/**
 * Passive hook for disk-level events. The power layer knows nothing
 * about the simulator; sim::SimObserver extends this interface with
 * replay-level callbacks. Default implementations do nothing, so
 * observers override only what they need.
 *
 * Timestamps are the stimulus times: a request that wakes a spun-down
 * disk reports the transition at the request's arrival even though
 * service starts only after the spin-up completes.
 */
class DiskObserver
{
  public:
    virtual ~DiskObserver() = default;

    /** The disk moved from @p from to @p to at @p time. */
    virtual void
    onDiskStateChange(TimeUs time, DiskState from, DiskState to)
    {
        (void)time;
        (void)from;
        (void)to;
    }

    /**
     * A request at @p time found the disk spun down (or heads
     * unloaded) and paid @p delay of extra latency waking it.
     */
    virtual void
    onSpinUpServed(TimeUs time, TimeUs delay)
    {
        (void)time;
        (void)delay;
    }
};

/**
 * Power-managed disk.
 *
 * Time semantics: transition energies (spin-down 0.36 J, spin-up
 * 4.4 J) are accounted as lump sums covering the whole transition
 * interval; idle and standby power accrue per microsecond. Idle and
 * standby energy of a gap is held back until the gap ends (next
 * request), at which point the whole gap is classified as
 * IdleShort or IdleLong by comparing its length with the breakeven
 * time — exactly the categories of Figure 8.
 *
 * Requests that arrive while the disk is busy queue behind the
 * current service; requests that arrive in Standby wait for the
 * spin-up. Request timestamps must be non-decreasing.
 */
class PowerManagedDisk
{
  public:
    /**
     * @p observer, when non-null, is notified of state transitions
     * and spin-up services; it must outlive the disk.
     */
    explicit PowerManagedDisk(const DiskParams &params,
                              DiskObserver *observer = nullptr);

    /**
     * A request for @p blocks cache blocks arrives at @p time.
     * @return the time at which the request completes, including any
     *         queueing and spin-up delay.
     */
    TimeUs request(TimeUs time, std::uint32_t blocks);

    /**
     * Policy orders a spin-down at @p time (from Idle or LowPower).
     * @return false when the order is ignored because the disk is not
     *         idle at @p time (busy or already spun down).
     */
    bool shutdown(TimeUs time);

    /**
     * Extension: drop into the low-power idle mode at @p time. Valid
     * only from Idle; exit happens automatically on the next request
     * (paying the head-load energy/delay) or via shutdown().
     * @return false when ignored (busy, already low-power or down).
     */
    bool enterLowPower(TimeUs time);

    /**
     * Finish the run: account energy up to @p time and classify the
     * trailing gap. Call exactly once, after the last request.
     */
    void finish(TimeUs time);

    /** Current state as of the last stimulus. */
    DiskState state() const { return state_; }

    /**
     * Observable state at @p t (>= the last stimulus) without
     * advancing the accounting: an Active disk whose service has
     * completed by @p t reads as Idle.
     */
    DiskState
    stateAt(TimeUs t) const
    {
        if (state_ == DiskState::Active && t >= busyUntil_)
            return DiskState::Idle;
        return state_;
    }

    /** Energy accounted so far (final after finish()). */
    const EnergyLedger &ledger() const { return ledger_; }

    /** Number of spin-downs performed. */
    std::uint64_t shutdownCount() const { return shutdownCount_; }

    /** Number of low-power idle entries (extension). */
    std::uint64_t lowPowerCount() const { return lowPowerCount_; }

    /** Number of spin-ups performed (requests that found the disk
     * spun down). */
    std::uint64_t spinUpCount() const { return spinUpCount_; }

    /** Total extra latency requests experienced due to spin-ups. */
    TimeUs totalSpinUpDelay() const { return totalSpinUpDelay_; }

    /** Number of requests serviced. */
    std::uint64_t requestCount() const { return requestCount_; }

    /** Requests that paid a wake-up: spin-ups plus low-power head
     * loads (one per DiskObserver::onSpinUpServed). */
    std::uint64_t wakeUpCount() const { return wakeUpCount_; }

    /** State changes so far (one per
     * DiskObserver::onDiskStateChange). */
    std::uint64_t transitionCount() const { return transitionCount_; }

    /**
     * Integer µs spent in each state, indexed by DiskState, timed at
     * the stimulus times onDiskStateChange reports. Closed at
     * finish(), after which the entries sum to the finish time.
     */
    const std::array<std::uint64_t, kDiskStates> &
    residencyUs() const
    {
        return residencyUs_;
    }

    /** Start time of the current idle gap (meaningful when not
     * Active). */
    TimeUs gapStart() const { return gapStart_; }

    /** Parameters the disk was built with. */
    const DiskParams &params() const { return params_; }

  private:
    /** Accrue per-time energy from now_ to @p t (>= now_). */
    void accrueTo(TimeUs t);

    /** Classify and flush the pending gap energy; gap ended at @p t. */
    void closeGap(TimeUs t);

    /** Add the residency of the current state up to @p time. */
    void closeResidency(TimeUs time);

    /** Move to @p next, notifying the observer on a real change. */
    void setState(TimeUs time, DiskState next);

    DiskParams params_;
    DiskObserver *observer_ = nullptr;
    DiskState state_ = DiskState::Idle;
    EnergyLedger ledger_;

    TimeUs now_ = 0;         ///< everything before this is accounted
    TimeUs busyUntil_ = 0;   ///< end of current/last service
    TimeUs gapStart_ = 0;    ///< when the current gap began
    double pendingGapJ_ = 0.0; ///< idle+standby energy of current gap
    bool finished_ = false;

    std::uint64_t shutdownCount_ = 0;
    std::uint64_t lowPowerCount_ = 0;
    std::uint64_t spinUpCount_ = 0;
    std::uint64_t requestCount_ = 0;
    std::uint64_t wakeUpCount_ = 0;
    std::uint64_t transitionCount_ = 0;
    TimeUs totalSpinUpDelay_ = 0;
    TimeUs lastRequestTime_ = 0;

    std::array<std::uint64_t, kDiskStates> residencyUs_{};
    TimeUs lastChange_ = 0; ///< stimulus time of the last state change
};

} // namespace pcap::power

#endif // PCAP_POWER_DISK_HPP
