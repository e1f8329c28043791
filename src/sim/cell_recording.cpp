#include "sim/cell_recording.hpp"

#include "sim/drivers.hpp"
#include "sim/policy.hpp"

namespace pcap::sim {

CellRecording::CellRecording(const power::DiskParams &disk,
                             bool trackDisk, obs::TimelineMeta meta,
                             const std::string &provenanceDir,
                             const std::string &timelineDir)
    : meta_(std::move(meta))
{
    if (!provenanceDir.empty()) {
        recorder_ = std::make_unique<obs::ProvenanceRecorder>();
        binary_ = std::make_unique<obs::BinaryProvenanceWriter>(
            provenanceDir + "/" + meta_.cell + ".prov.bin");
        recorder_->addSink(binary_.get());
        provenance_ =
            std::make_unique<ProvenanceObserver>(*recorder_, disk);
    }
    if (!timelineDir.empty()) {
        timeline_ = std::make_unique<TimelineObserver>(disk, trackDisk);
        timelineBase_ = timelineDir + "/" + meta_.cell;
    }
}

std::vector<SimObserver *>
CellRecording::observers() const
{
    std::vector<SimObserver *> out;
    if (provenance_)
        out.push_back(provenance_.get());
    if (timeline_)
        out.push_back(timeline_.get());
    return out;
}

void
CellRecording::bindSession(PolicySession &session)
{
    if (provenance_)
        session.setProvenanceTap(provenance_.get());
    if (timeline_)
        timeline_->bindTableSize(
            [&session] { return session.tableEntries(); });
}

void
CellRecording::bindDriver(const GlobalDriver &driver)
{
    if (provenance_)
        provenance_->bindDecisionPid(
            [&driver] { return driver.decisionPid(); });
}

void
CellRecording::finish()
{
    if (recorder_)
        recorder_->close();
    if (timeline_) {
        obs::writeTimelineJson(timeline_->timeline(), meta_,
                               timelineBase_ + ".timeline.json");
        obs::writeTimelineCsv(timeline_->timeline(), meta_,
                              timelineBase_ + ".timeline.csv");
    }
}

} // namespace pcap::sim
