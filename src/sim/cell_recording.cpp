#include "sim/cell_recording.hpp"

#include "sim/policy.hpp"

namespace pcap::sim {

CellRecording::CellRecording(const power::DiskParams &disk,
                             bool trackDisk, obs::TimelineMeta meta,
                             const std::string &provenanceDir,
                             const std::string &timelineDir)
    : meta_(std::move(meta))
{
    if (!provenanceDir.empty()) {
        binary_ = std::make_unique<obs::BinaryProvenanceWriter>(
            provenanceDir + "/" + meta_.cell + ".prov.bin");
        provenance_ =
            std::make_unique<ProvenanceObserver>(*binary_, disk);
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
CellRecording::bind(PolicySession &session, const GlobalDriver *driver)
{
    if (provenance_)
        provenance_->bind(session, driver);
    if (timeline_)
        timeline_->bindTableSize(
            [&session] { return session.tableEntries(); });
}

void
CellRecording::finish()
{
    if (binary_)
        binary_->close();
    if (timeline_) {
        obs::writeTimelineJson(timeline_->timeline(), meta_,
                               timelineBase_ + ".timeline.json");
        obs::writeTimelineCsv(timeline_->timeline(), meta_,
                              timelineBase_ + ".timeline.csv");
    }
}

} // namespace pcap::sim
