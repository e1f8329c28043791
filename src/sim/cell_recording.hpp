/**
 * @file
 * The per-cell file artifacts of an instrumented replay, assembled
 * in one place: the provenance observer writing <stem>.prov.bin,
 * and the simulated-time timeline serialized to
 * <stem>.timeline.{json,csv}. ParallelEvaluation's cells and
 * FleetDriver's recorded hosts both record through a CellRecording.
 */

#ifndef PCAP_SIM_CELL_RECORDING_HPP
#define PCAP_SIM_CELL_RECORDING_HPP

#include <memory>
#include <string>
#include <vector>

#include "obs/provenance.hpp"
#include "obs/timeline.hpp"
#include "power/disk_params.hpp"
#include "sim/observer.hpp"

namespace pcap::sim {

class GlobalDriver;
class PolicySession;

/**
 * One cell's recording. Either half is off when its directory is
 * empty; a recording with both off attaches no observer. Artifacts
 * are named <dir>/<meta.cell>.<ext>.
 */
class CellRecording
{
  public:
    /**
     * @param disk          Energy deltas and per-state draws.
     * @param trackDisk     False for diskless (local-accuracy)
     *                      replays: the timeline keeps outcomes only.
     * @param meta          Timeline meta block; meta.cell is the
     *                      artifact stem.
     * @param provenanceDir Where <stem>.prov.bin goes, or empty.
     * @param timelineDir   Where <stem>.timeline.* go, or empty.
     */
    CellRecording(const power::DiskParams &disk, bool trackDisk,
                  obs::TimelineMeta meta,
                  const std::string &provenanceDir,
                  const std::string &timelineDir);

    /** The observers to attach (provenance, then timeline). */
    std::vector<SimObserver *> observers() const;

    /** Bind the provenance observer to @p session and @p driver
     * (ProvenanceObserver::bind) and sample the session's table size
     * into the timeline. Both must outlive the replay. */
    void bind(PolicySession &session,
              const GlobalDriver *driver = nullptr);

    /** Close the .prov.bin, then write the timeline. */
    void finish();

  private:
    std::unique_ptr<obs::BinaryProvenanceWriter> binary_;
    std::unique_ptr<ProvenanceObserver> provenance_;
    std::unique_ptr<TimelineObserver> timeline_;
    obs::TimelineMeta meta_;
    std::string timelineBase_; ///< <timelineDir>/<stem>
};

} // namespace pcap::sim

#endif // PCAP_SIM_CELL_RECORDING_HPP
