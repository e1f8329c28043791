/**
 * @file
 * Online power-managed disk state machine, and how its joules are
 * charged — the one statement of that rule.
 *
 * The disk is driven by two kinds of stimuli: requests (disk accesses
 * surviving the file cache) and shutdown orders from a power-management
 * policy. It keeps one integer account of where its time went
 * (DiskAccount: µs per state and Figure 8 category, plus transition
 * counts) and tracks shutdown/spin-up statistics; its EnergyLedger is
 * ledgerOf that account. A µs in a state costs that state's draw,
 * except inside a transition window, which the transition's lump sum
 * pays for. The disk, the timeline and the provenance energy deltas
 * all charge through the functions below.
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

/** Joules @p us µs in @p state cost outside a transition window. */
double stateEnergyJ(const DiskParams &params, DiskState state,
                    TimeUs us);

/**
 * Lump sum of a @p from → @p to change, 0 for a free one: entering
 * Standby pays the spin-down, leaving it the spin-up, and loading the
 * heads out of LowPower the exit (unloading them is free).
 */
double transitionEnergyJ(const DiskParams &params, DiskState from,
                         DiskState to);

/**
 * One disk run in integer µs. us[state][category] holds the µs spent
 * in a state by who pays for them: the BusyIo, IdleShort and IdleLong
 * columns at the state's draw, the PowerCycle column inside transition
 * windows (a spin-down; a wake, with what remains of a spin-down it
 * interrupts), which the lump sums cover. A row sums to the state's
 * residency.
 */
struct DiskAccount
{
    std::array<std::array<std::uint64_t, kEnergyCategories>,
               kDiskStates>
        us{};
    /** State changes, indexed [from][to]. */
    std::array<std::array<std::uint64_t, kDiskStates>, kDiskStates>
        transitions{};

    /** µs spent in each state (the rows' sums). */
    std::array<std::uint64_t, kDiskStates> residencyUs() const;

    std::uint64_t
    count(DiskState from, DiskState to) const
    {
        return transitions[indexOf(from)][indexOf(to)];
    }
};

/** The Figure 8 ledger of @p account: every charged µs at its
 * state's draw, every transition's lump sum into PowerCycle. */
EnergyLedger ledgerOf(const DiskAccount &account,
                      const DiskParams &params);

/**
 * Joules a spin-down saves against idling through the @p offUs µs
 * from the order to the end of the gap (negative: it wasted energy),
 * with the spin-up when the gap ends with a request (@p wakes): the
 * ledger difference of an idling disk and a cycling one, each
 * finished at its own completion.
 */
double shutdownSavingJ(const DiskParams &params, TimeUs offUs,
                       bool wakes);

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
     * The disk spent [@p start, @p end) in @p state; the µs before
     * @p chargedFrom (start <= chargedFrom <= end) lie in a transition
     * window that the lump sums cover, the rest draw @p state's power.
     * Fired as each stint closes: just before the onDiskStateChange
     * that ends it, and at finish() for the last one.
     */
    virtual void
    onDiskStint(DiskState state, TimeUs start, TimeUs chargedFrom,
                TimeUs end)
    {
        (void)state;
        (void)start;
        (void)chargedFrom;
        (void)end;
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
 * 4.4 J) are lump sums covering the whole transition window; every
 * other µs is charged at its state's draw (stateEnergyJ). The µs of an
 * idle gap are held back until the gap ends (next request), at which
 * point the whole gap is classified as IdleShort or IdleLong by
 * comparing its length with the breakeven time — exactly the
 * categories of Figure 8.
 *
 * Requests that arrive while the disk is busy queue behind the
 * current service; requests that arrive in Standby wait for the
 * spin-up. Request and finish() timestamps must be non-decreasing and
 * not precede an order the disk took; an order it ignored does not
 * count.
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
     * Finish the run: close the account at @p time and classify the
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

    /** The energy of the run, ledgerOf its account. Panics before
     * finish(): an unfinished run has open stints and an
     * unclassified gap. */
    EnergyLedger ledger() const;

    /** Number of spin-downs performed. */
    std::uint64_t shutdownCount() const;

    /** Number of low-power idle entries (extension). */
    std::uint64_t
    lowPowerCount() const
    {
        return account_.count(DiskState::Idle, DiskState::LowPower);
    }

    /** Number of spin-ups performed (requests that found the disk
     * spun down). */
    std::uint64_t
    spinUpCount() const
    {
        return account_.count(DiskState::Standby, DiskState::Active);
    }

    /** Total extra latency requests experienced due to spin-ups. */
    TimeUs totalSpinUpDelay() const { return totalSpinUpDelay_; }

    /** Number of requests serviced. */
    std::uint64_t requestCount() const { return requestCount_; }

    /** Requests that paid a wake-up: spin-ups plus low-power head
     * loads (one per DiskObserver::onSpinUpServed). */
    std::uint64_t
    wakeUpCount() const
    {
        return spinUpCount() +
               account_.count(DiskState::LowPower, DiskState::Active);
    }

    /** State changes so far (one per
     * DiskObserver::onDiskStateChange). */
    std::uint64_t transitionCount() const;

    /**
     * Integer µs spent in each state, indexed by DiskState, timed at
     * the stimulus times onDiskStateChange reports — the account's
     * row sums. After finish() the entries sum to the finish time.
     */
    std::array<std::uint64_t, kDiskStates>
    residencyUs() const
    {
        return account_.residencyUs();
    }

    /** Parameters the disk was built with. */
    const DiskParams &params() const { return params_; }

  private:
    /** Bring the clock to stimulus time @p t: a service that has
     * completed by then closes, opening an idle gap. */
    void advance(TimeUs t);

    /** Book the current stint's µs up to @p end. */
    void closeStint(TimeUs end);

    /** Classify the open gap, which ends at @p end: move its µs into
     * the IdleShort or IdleLong column. */
    void closeGap(TimeUs end);

    /** Move to @p next at @p time, its stint drawing power from
     * @p chargedFrom on; notifies the observer on a real change. */
    void setState(TimeUs time, DiskState next, TimeUs chargedFrom);

    DiskParams params_;
    DiskObserver *observer_ = nullptr;
    DiskState state_ = DiskState::Idle;
    DiskAccount account_;

    /** Latest stimulus, or the end of a transition window the disk
     * is in: orders before it are ignored. */
    TimeUs now_ = 0;
    TimeUs lastStimulus_ = 0; ///< latest request or taken order
    TimeUs busyUntil_ = 0;    ///< end of current/last service
    TimeUs gapStart_ = 0;     ///< when the current gap began
    TimeUs lastChange_ = 0;   ///< when the current stint began
    TimeUs chargedFrom_ = 0;  ///< the current stint draws from here
    /** Charged µs of the open gap per state, not yet classified. */
    std::array<std::uint64_t, kDiskStates> gapUs_{};
    bool finished_ = false;

    std::uint64_t requestCount_ = 0;
    TimeUs totalSpinUpDelay_ = 0;
};

} // namespace pcap::power

#endif // PCAP_POWER_DISK_HPP
