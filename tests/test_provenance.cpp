/**
 * @file
 * Provenance tests: binary round-trip and rejection of malformed
 * files, JSONL rendering,
 * name-table lockstep with sim/pred, forensics aggregation, energy
 * deltas against two real disks, and the
 * end-to-end reconciliation guarantee — every cell kind writes one
 * log whose outcome counts equal the AccuracyStats the same run
 * reported.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/provenance.hpp"
#include "power/disk.hpp"
#include "pred/predictor.hpp"
#include "sim/experiment.hpp"
#include "sim/policy.hpp"
#include "sim/observer.hpp"

namespace pcap {
namespace {

/** A record with recognizably non-default fields. */
obs::ProvenanceRecord
sampleRecord(int i)
{
    obs::ProvenanceRecord record;
    record.startUs = 1000 * i;
    record.endUs = 1000 * i + 500;
    record.shutdownUs = (i % 2) ? record.startUs + 100 : -1;
    record.decisionTimeUs = record.startUs;
    record.decisionEarliestUs = record.startUs + 50;
    record.pid = 100 + i;
    record.execution = i / 3;
    record.signature = 0xdead0000u + static_cast<std::uint32_t>(i);
    record.pathHash = 0x1234567890abcdefull + i;
    record.pathLength = 12 + i;
    record.pathTailLength = 3;
    record.pathTail = {0x400100u, 0x400200u,
                       0x400300u + static_cast<std::uint32_t>(i)};
    record.outcome =
        static_cast<std::uint8_t>(i % obs::kProvenanceOutcomes);
    record.source = static_cast<std::uint8_t>(i % 3);
    record.flags = obs::kProvHasDecision | obs::kProvEntryPresent;
    record.entryHitsBefore = 1;
    record.entryTrainingsBefore = 2;
    record.entryHitsAfter = 3;
    record.entryTrainingsAfter = 4;
    record.energyDeltaJ = 0.25 * i;
    return record;
}

/** In-memory sink collecting records in arrival order. */
class CollectSink final : public obs::ProvenanceSink
{
  public:
    void write(const obs::ProvenanceRecord &record) override
    {
        records.push_back(record);
    }

    std::vector<obs::ProvenanceRecord> records;
};

struct TempDir
{
    TempDir()
    {
        path = (std::filesystem::temp_directory_path() /
                ("pcap-test-provenance-" +
                 std::to_string(::getpid())))
                   .string();
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    std::string path;
};

TEST(ProvenanceBinary, RoundTripPreservesEveryField)
{
    TempDir dir;
    const std::string path = dir.path + "/roundtrip.prov.bin";
    {
        obs::BinaryProvenanceWriter writer(path);
        for (int i = 0; i < 7; ++i)
            writer.write(sampleRecord(i));
        writer.close();
        EXPECT_EQ(writer.recordCount(), 7u);
    }

    std::vector<obs::ProvenanceRecord> records;
    ASSERT_EQ(obs::readProvenanceFile(path, records), "");
    ASSERT_EQ(records.size(), 7u);
    for (int i = 0; i < 7; ++i)
        EXPECT_EQ(records[i], sampleRecord(i)) << "record " << i;
}

TEST(ProvenanceBinary, ReaderRejectsGarbage)
{
    TempDir dir;
    std::vector<obs::ProvenanceRecord> records;

    EXPECT_NE(obs::readProvenanceFile(dir.path + "/missing.prov.bin",
                                      records),
              "");

    const std::string bad = dir.path + "/bad.prov.bin";
    {
        std::ofstream os(bad, std::ios::binary);
        os << "this is not a provenance file";
    }
    EXPECT_NE(obs::readProvenanceFile(bad, records), "");
}

TEST(ProvenanceBinary, ReaderRejectsOutOfRangeFields)
{
    TempDir dir;
    const std::string good = dir.path + "/good.prov.bin";
    {
        obs::BinaryProvenanceWriter writer(good);
        writer.write(sampleRecord(1));
        writer.close();
    }
    std::vector<obs::ProvenanceRecord> records;
    ASSERT_EQ(obs::readProvenanceFile(good, records), "");

    // File offsets of the one-byte fields: a 16-byte header, then
    // five i64, two i32, the u32 signature, the u64 path hash and
    // the u32 path length precede them.
    constexpr std::size_t kTailLength = 16 + 5 * 8 + 2 * 4 + 4 + 8 + 4;
    const struct
    {
        const char *field;
        std::size_t offset;
        unsigned char value;
    } cases[] = {
        {"path tail length", kTailLength,
         obs::kProvenancePathTail + 1},
        {"path tail length", kTailLength, 255},
        {"outcome", kTailLength + 1, obs::kProvenanceOutcomes},
        {"source", kTailLength + 2, 3},
        {"flags", kTailLength + 3, 1u << 3},
    };
    for (const auto &c : cases) {
        std::ifstream in(good, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        bytes[c.offset] = static_cast<char>(c.value);
        const std::string bad = dir.path + "/bad.prov.bin";
        std::ofstream(bad, std::ios::binary) << bytes;
        records.clear();
        const std::string problem =
            obs::readProvenanceFile(bad, records);
        EXPECT_NE(problem.find("malformed record"), std::string::npos)
            << c.field << " = " << int(c.value) << ": " << problem;
    }
}

TEST(ProvenanceJsonl, RendersBinaryReadBackLikeMemory)
{
    TempDir dir;
    const std::string path = dir.path + "/cell.prov.bin";
    std::vector<obs::ProvenanceRecord> written;
    for (int i = 0; i < 7; ++i) // every outcome and source
        written.push_back(sampleRecord(i));
    written[2].flags = 0;        // no decision
    written[3].flags = obs::kProvHasDecision | obs::kProvPredicted;
    written[4].pathTailLength = obs::kProvenancePathTail;
    {
        obs::BinaryProvenanceWriter writer(path);
        for (const auto &record : written)
            writer.write(record);
        writer.close();
    }
    std::vector<obs::ProvenanceRecord> read;
    ASSERT_EQ(obs::readProvenanceFile(path, read), "");

    std::ostringstream fromMemory, fromFile;
    obs::writeProvenanceJsonl(written, "cell", fromMemory);
    obs::writeProvenanceJsonl(read, "cell", fromFile);
    EXPECT_EQ(fromFile.str(), fromMemory.str());

    const std::string text = fromMemory.str();
    EXPECT_EQ(text.rfind("{\"schema\":\"pcap-provenance-v1\","
                         "\"cell\":\"cell\",\"path_tail\":8}\n",
                         0),
              0u);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 8);
    for (std::size_t i = 0; i < obs::kProvenanceOutcomes; ++i) {
        const std::string needle =
            std::string("\"outcome\":\"") +
            obs::provenanceOutcomeName(static_cast<std::uint8_t>(i)) +
            "\"";
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
}

TEST(ProvenanceNames, OutcomeTableMirrorsSimIdleOutcome)
{
    // The obs layer cannot include sim (dependency order), so the
    // outcome codes mirror sim::IdleOutcome by value. This is the
    // lockstep guard: renaming or reordering either side fails here.
    for (std::size_t i = 0; i < obs::kProvenanceOutcomes; ++i) {
        EXPECT_STREQ(
            obs::provenanceOutcomeName(static_cast<std::uint8_t>(i)),
            sim::idleOutcomeName(static_cast<sim::IdleOutcome>(i)))
            << "outcome code " << i;
    }
}

TEST(ProvenanceNames, SourceTableMirrorsPredDecisionSource)
{
    for (std::uint8_t i = 0; i < 3; ++i) {
        EXPECT_STREQ(
            obs::provenanceSourceName(i),
            pred::decisionSourceName(
                static_cast<pred::DecisionSource>(i)))
            << "source code " << int(i);
    }
}

TEST(ProvenanceForensics, DetectsCollisionsAndRanksMispredictors)
{
    obs::ProvenanceForensics forensics;

    // Signature A: two distinct paths (a collision), 2 misses.
    obs::ProvenanceRecord a1 = sampleRecord(0);
    a1.signature = 0xaaaa;
    a1.pathHash = 1;
    a1.outcome = obs::kOutcomeMissPrimary;
    obs::ProvenanceRecord a2 = a1;
    a2.pathHash = 2; // same signature, different full path
    a2.outcome = obs::kOutcomeMissBackup;
    // Signature B: one path, 1 miss + 1 hit.
    obs::ProvenanceRecord b1 = sampleRecord(1);
    b1.signature = 0xbbbb;
    b1.pathHash = 3;
    b1.outcome = obs::kOutcomeMissPrimary;
    obs::ProvenanceRecord b2 = b1;
    b2.outcome = obs::kOutcomeHitPrimary;
    // A record with no decision attached.
    obs::ProvenanceRecord none;
    none.outcome = obs::kOutcomeShort;

    for (const auto &record : {a1, a2, b1, b2, none})
        forensics.add(record);

    EXPECT_EQ(forensics.records(), 5u);
    EXPECT_EQ(forensics.noDecision(), 1u);
    EXPECT_EQ(forensics.outcomeTotals()[obs::kOutcomeShort], 1u);
    EXPECT_EQ(forensics.outcomeTotals()[obs::kOutcomeMissPrimary],
              2u);

    const auto collisions = forensics.collisions();
    ASSERT_EQ(collisions.size(), 1u);
    EXPECT_EQ(collisions[0]->signature, 0xaaaau);
    EXPECT_EQ(collisions[0]->pathCounts.size(), 2u);

    const auto top = forensics.topMispredictors(10);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0]->signature, 0xaaaau); // 2 misses before 1
    EXPECT_EQ(top[1]->signature, 0xbbbbu);
    EXPECT_EQ(top[1]->hits(), 1u);
}

/** Outcome totals of @p f restated as AccuracyStats-shaped sums. */
void
expectReconciles(const obs::ProvenanceForensics &f,
                 const sim::AccuracyStats &stats)
{
    const auto &totals = f.outcomeTotals();
    EXPECT_EQ(totals[obs::kOutcomeHitPrimary], stats.hitPrimary);
    EXPECT_EQ(totals[obs::kOutcomeHitBackup], stats.hitBackup);
    EXPECT_EQ(totals[obs::kOutcomeMissPrimary], stats.missPrimary);
    EXPECT_EQ(totals[obs::kOutcomeMissBackup], stats.missBackup);
    EXPECT_EQ(totals[obs::kOutcomeNotPredicted],
              stats.notPredicted);
    // Every non-Short record is exactly one AccuracyStats tally.
    EXPECT_EQ(f.records() - totals[obs::kOutcomeShort],
              stats.hits() + stats.misses() + stats.notPredicted);
}

/** True when @p path ends with @p suffix. */
bool
endsWith(const std::string &path, const std::string &suffix)
{
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/**
 * Ledger total of a disk that serves a request at 0, spins down at
 * @p shutdownAt when it is not negative, and at @p end either serves
 * a request (@p wakes) or finishes; it finishes at its own
 * completion.
 */
double
scriptedDiskJ(const power::DiskParams &params, TimeUs shutdownAt,
              TimeUs end, bool wakes)
{
    power::PowerManagedDisk disk(params);
    disk.request(0, 1);
    if (shutdownAt >= 0) {
        EXPECT_TRUE(disk.shutdown(shutdownAt));
    }
    disk.finish(wakes ? disk.request(end, 1) : end);
    return disk.ledger().total();
}

TEST(ProvenanceEnergyDelta, EqualsTheLedgerDifferenceOfTwoDisks)
{
    // A record's energy delta is what its spin-down saved: the
    // ledger of a disk idling through the gap minus that of one
    // spinning down at the record's shutdown time — for gaps that
    // end with a request and trailing gaps, and for off-times inside
    // and past the spin-down window.
    const power::DiskParams params = power::fujitsuMhf2043at();
    const TimeUs shutdown_at = secondsUs(2.0);
    for (const TimeUs end : {secondsUs(40.0), secondsUs(2.3)}) {
        for (const bool trailing : {false, true}) {
            CollectSink sink;
            sim::ProvenanceObserver observer(sink, params);
            sim::ExecutionInput input;
            input.endTime = trailing ? end : end + secondsUs(10.0);
            observer.onExecutionBegin(input);
            sim::IdlePeriodRecord record;
            record.pid = 7;
            record.start = 0;
            record.end = end;
            record.shutdownAt = shutdown_at;
            record.source = pred::DecisionSource::Primary;
            record.outcome = sim::IdleOutcome::HitPrimary;
            observer.onIdlePeriod(record);

            const std::vector<obs::ProvenanceRecord> &records =
                sink.records;
            ASSERT_EQ(records.size(), 1u);
            const double idling =
                scriptedDiskJ(params, -1, end, !trailing);
            const double cycling =
                scriptedDiskJ(params, shutdown_at, end, !trailing);
            EXPECT_NEAR(records[0].energyDeltaJ, idling - cycling,
                        1e-9 * idling)
                << "end " << end << (trailing ? " trailing" : "");
        }
    }
}

TEST(ProvenanceReconciliation, EveryCellWritesOneLogMatchingItsStats)
{
    TempDir dir;
    sim::ExperimentConfig config;
    config.maxExecutions = 2;
    sim::ParallelOptions options;
    options.jobs = 1;
    options.provenanceDir = dir.path;
    sim::ParallelEvaluation eval(config, options);

    const sim::PolicyConfig policy = sim::policyByName("PCAP");
    const std::string app = "mozilla";
    // Cell-name prefix -> the stats that cell's run reported.
    // maxExecutions = 2 is a non-default experiment config, so every
    // stem carries a -c<confighash> digest after the app.
    const std::map<std::string, sim::AccuracyStats> cells = {
        {"local-mozilla-c", eval.localAccuracy(app, policy)},
        {"global-mozilla-c", eval.globalRun(app, policy).run.accuracy},
        {"multistate-mozilla-c",
         eval.multiStateRun(app, policy).run.accuracy},
        {"base-mozilla-c", eval.baseRun(app).accuracy},
        {"ideal-mozilla-c", eval.idealRun(app).accuracy},
    };

    std::map<std::string, int> logs;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path)) {
        const std::string name = entry.path().filename().string();
        EXPECT_FALSE(endsWith(name, ".jsonl")) << name;
        if (!endsWith(name, ".prov.bin"))
            continue;
        std::vector<obs::ProvenanceRecord> records;
        ASSERT_EQ(obs::readProvenanceFile(entry.path().string(),
                                          records),
                  "");
        ASSERT_FALSE(records.empty()) << name;
        // Records arrive in replay order: executions in sequence,
        // and each execution's periods in the order their gaps
        // closed.
        for (std::size_t i = 1; i < records.size(); ++i) {
            const obs::ProvenanceRecord &prev = records[i - 1];
            const obs::ProvenanceRecord &next = records[i];
            ASSERT_LE(prev.execution, next.execution)
                << name << " record " << i;
            if (prev.execution == next.execution) {
                ASSERT_LE(prev.endUs, next.endUs)
                    << name << " record " << i;
            }
        }
        obs::ProvenanceForensics forensics;
        for (const auto &record : records)
            forensics.add(record);
        const auto cell = std::find_if(
            cells.begin(), cells.end(), [&name](const auto &c) {
                return name.rfind(c.first, 0) == 0;
            });
        ASSERT_NE(cell, cells.end()) << name;
        SCOPED_TRACE(name);
        expectReconciles(forensics, cell->second);
        ++logs[cell->first];
        // Policy cells name their policy; base and ideal have none,
        // and their records carry no decision.
        const bool policyCell = name.rfind("base-", 0) != 0 &&
                                name.rfind("ideal-", 0) != 0;
        EXPECT_EQ(name.find("-PCAP-") != std::string::npos,
                  policyCell);
        if (!policyCell) {
            EXPECT_EQ(forensics.noDecision(), forensics.records());
            for (const auto &record : records)
                EXPECT_EQ(record.pid, -1);
        }
    }
    for (const auto &[prefix, stats] : cells)
        EXPECT_EQ(logs[prefix], 1) << prefix;
}

} // namespace
} // namespace pcap
