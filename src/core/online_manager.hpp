/**
 * @file
 * Online power manager: the deployment-shaped facade of PCAP.
 *
 * The paper's design (Figures 4 and 5) lives inside an operating
 * system: library hooks deliver (pid, PC, fd) for every I/O, each
 * process keeps its signature in its kernel status structure, the
 * Global Shutdown Predictor arbitrates, and the trained table is
 * saved to the application's initialization file on exit. This class
 * packages exactly that loop behind an event-driven API, so a host
 * (an example program, a simulator, or a real syscall-interception
 * layer) only reports process lifecycle and I/O completions and asks
 * "when should the disk spin down?".
 */

#ifndef PCAP_CORE_ONLINE_MANAGER_HPP
#define PCAP_CORE_ONLINE_MANAGER_HPP

#include <memory>
#include <string>

#include "core/global.hpp"
#include "core/pcap.hpp"
#include "core/table_store.hpp"
#include "power/disk.hpp"
#include "trace/event.hpp"

namespace pcap::core {

/** Configuration of the online manager. */
struct OnlineManagerConfig
{
    PcapConfig pcap;              ///< predictor variant to run
    power::DiskParams disk;       ///< managed device
    std::string tableDirectory;   ///< where tables persist; empty =
                                  ///< in-memory only
    std::string application = "app"; ///< table-file key
};

/**
 * Event-driven power manager around one disk.
 *
 * Usage: feed processStart()/processExit() and onIo() in
 * non-decreasing time order; between I/Os, call poll(now) to let a
 * due shutdown happen. pendingShutdownAt() exposes the next planned
 * spin-down so a host can sleep precisely until it. The destructor
 * — or an explicit persist() — writes the prediction table through
 * the TableStore, so the next OnlineManager instance for the same
 * application starts trained (Section 4.2).
 */
class OnlineManager
{
  public:
    explicit OnlineManager(const OnlineManagerConfig &config);

    /** Register a process at @p now. */
    void processStart(Pid pid, TimeUs now);

    /** Unregister a process at @p now. */
    void processExit(Pid pid, TimeUs now);

    /**
     * An I/O of @p pid completed at @p now (post cache: an actual
     * disk access). Wakes the disk if needed.
     * @return the time the request completes (including spin-up).
     */
    TimeUs onIo(Pid pid, TimeUs now, Address pc, Fd fd, FileId file,
                std::uint32_t blocks = 1);

    /**
     * Let time pass until @p now: performs the scheduled spin-down
     * when its moment has arrived.
     * @return true when the disk was spun down by this call.
     */
    bool poll(TimeUs now);

    /**
     * When the disk is next due to spin down given the current
     * global decision, or kTimeNever.
     */
    TimeUs pendingShutdownAt() const;

    /** Disk state as of the latest event or poll. */
    power::DiskState
    diskState() const
    {
        return disk_.stateAt(lastSeen_);
    }

    /** Finish at @p now: closes the energy accounting and persists
     * the table. Call once. */
    void finish(TimeUs now);

    /** Energy of the run; available once finish() has closed the
     * disk's account (panics before). */
    power::EnergyLedger energy() const
    {
        return disk_.ledger();
    }

    /** Spin-downs performed. */
    std::uint64_t shutdowns() const { return disk_.shutdownCount(); }

    /** Spin-ups performed. */
    std::uint64_t spinUps() const { return disk_.spinUpCount(); }

    /** Entries in the (shared, persistent) prediction table. */
    std::size_t tableEntries() const { return table_->size(); }

    /** Persist the prediction table now (no-op without a table
     * directory). @return empty string or an error. */
    std::string persist() const;

  private:
    OnlineManagerConfig config_;
    std::shared_ptr<PredictionTable> table_;
    std::unique_ptr<TableStore> store_;
    GlobalShutdownPredictor global_;
    power::PowerManagedDisk disk_;
    TimeUs lastCompletion_ = 0;
    TimeUs lastSeen_ = 0; ///< latest time observed via any call
    bool finished_ = false;
};

} // namespace pcap::core

#endif // PCAP_CORE_ONLINE_MANAGER_HPP
