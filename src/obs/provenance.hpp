/**
 * @file
 * Prediction provenance: one record per classified idle period.
 *
 * The metrics subsystem (metrics.hpp) answers "how often did PCAP
 * miss"; this layer answers "which signature, formed by which PC
 * path, over which table entry, missed — and what did it cost". One
 * ProvenanceRecord captures the full causal chain behind one
 * classified idle period, and it is the only per-period record the
 * simulator writes. Each record goes straight to one sink as its
 * period is classified: the compact fixed-size binary format
 * (.prov.bin, buffered by its stream) or an in-memory aggregate. The
 * JSONL view (schema pcap-provenance-v1) is rendered from records on
 * demand (writeProvenanceJsonl).
 *
 * This layer is deliberately self-contained: records use plain
 * scalar types only, so obs stays below core/sim in the dependency
 * order. Outcome and source codes mirror sim::IdleOutcome and
 * pred::DecisionSource by value; tests assert the name tables stay
 * in lockstep.
 */

#ifndef PCAP_OBS_PROVENANCE_HPP
#define PCAP_OBS_PROVENANCE_HPP

#include <array>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace pcap::obs {

/** Trailing call sites carried per record (matches the core tap). */
constexpr std::size_t kProvenancePathTail = 8;

/** Outcome codes, by value identical to sim::IdleOutcome. */
constexpr std::size_t kProvenanceOutcomes = 6;
constexpr std::uint8_t kOutcomeShort = 0;
constexpr std::uint8_t kOutcomeNotPredicted = 1;
constexpr std::uint8_t kOutcomeHitPrimary = 2;
constexpr std::uint8_t kOutcomeHitBackup = 3;
constexpr std::uint8_t kOutcomeMissPrimary = 4;
constexpr std::uint8_t kOutcomeMissBackup = 5;

/** Flag bits of ProvenanceRecord::flags. */
constexpr std::uint8_t kProvHasDecision = 1u << 0;
constexpr std::uint8_t kProvEntryPresent = 1u << 1;
constexpr std::uint8_t kProvPredicted = 1u << 2;

/** Stable lower-case outcome name; mirrors sim::idleOutcomeName. */
const char *provenanceOutcomeName(std::uint8_t outcome);

/** Stable lower-case source name; mirrors pred::decisionSourceName. */
const char *provenanceSourceName(std::uint8_t source);

/**
 * The full causal record of one classified idle period: who decided
 * (pid), on what evidence (signature, PC path, table entry state),
 * what was predicted (decision time and earliest consent), what
 * actually happened (period bounds, shutdown, outcome) and what it
 * was worth (energy delta).
 */
struct ProvenanceRecord
{
    std::int64_t startUs = 0;       ///< gap opens (last access)
    std::int64_t endUs = 0;         ///< gap closes (next access/end)
    std::int64_t shutdownUs = -1;   ///< spin-down inside, or -1
    std::int64_t decisionTimeUs = -1;   ///< deciding I/O, or -1
    std::int64_t decisionEarliestUs = -1; ///< earliest consent, or -1

    std::int32_t pid = -1;     ///< deciding process, -1 unknown
    std::int32_t execution = 0;

    std::uint32_t signature = 0;  ///< 4-byte arithmetic path sum
    std::uint64_t pathHash = 0;   ///< FNV-1a over the full PC path
    std::uint32_t pathLength = 0; ///< PCs folded into the signature
    std::uint8_t pathTailLength = 0;
    std::uint8_t outcome = kOutcomeShort; ///< sim::IdleOutcome value
    std::uint8_t source = 0; ///< pred::DecisionSource value
    std::uint8_t flags = 0;  ///< kProvHasDecision | ...

    std::array<std::uint32_t, kProvenancePathTail> pathTail{};

    std::uint32_t entryHitsBefore = 0;
    std::uint32_t entryTrainingsBefore = 0;
    std::uint32_t entryHitsAfter = 0;
    std::uint32_t entryTrainingsAfter = 0;

    /** Joules saved (negative: wasted) by the shutdown relative to
     * leaving the disk spinning; 0 when no shutdown fired. */
    double energyDeltaJ = 0.0;

    std::int64_t lengthUs() const { return endUs - startUs; }
    bool hasDecision() const { return flags & kProvHasDecision; }

    bool operator==(const ProvenanceRecord &other) const = default;
};

/** Serialized size of one binary record (fixed; see the writer). */
constexpr std::size_t kProvenanceRecordBytes = 124;

/** Receiver of provenance records, one write per classified
 * period in classification order. Not owned by the observer
 * feeding it; it must outlive that observer. */
class ProvenanceSink
{
  public:
    virtual ~ProvenanceSink() = default;

    virtual void write(const ProvenanceRecord &record) = 0;
};

/**
 * Compact binary sink: an 16-byte header (magic "PCAPPROV",
 * version, record size) followed by fixed-size little-endian
 * records. ~124 bytes/record vs ~400 for the JSONL rendering.
 */
class BinaryProvenanceWriter final : public ProvenanceSink
{
  public:
    /** Opens @p path and writes the header; fatal() on failure. */
    explicit BinaryProvenanceWriter(const std::string &path);

    void write(const ProvenanceRecord &record) override;

    /** Flush and close; a write failure surfaces here at the
     * latest. Idempotent. */
    void close();

    std::uint64_t recordCount() const { return records_; }

  private:
    std::ofstream os_;
    std::string path_;
    std::uint64_t records_ = 0;
};

/**
 * Render @p records as JSONL, schema pcap-provenance-v1: a header
 * line {"schema":"pcap-provenance-v1","cell":...} followed by one
 * record object per line (see EXPERIMENTS.md for the field
 * reference). @p cell names the producing simulation cell — by
 * convention the .prov.bin file name without its extension.
 */
void writeProvenanceJsonl(const std::vector<ProvenanceRecord> &records,
                          const std::string &cell, std::ostream &os);

/**
 * Read back a binary provenance file. A record whose path tail is
 * longer than kProvenancePathTail, or whose outcome, source or flags
 * hold a value no writer produces, is malformed.
 * @return empty string on success, else a diagnostic.
 */
std::string readProvenanceFile(const std::string &path,
                               std::vector<ProvenanceRecord> &out);

// -- Forensics --------------------------------------------------

/** Everything attributed to one 4-byte signature. */
struct SignatureSummary
{
    std::uint32_t signature = 0;
    std::uint64_t periods = 0; ///< records carrying this signature
    std::array<std::uint64_t, kProvenanceOutcomes> outcomes{};
    double energyDeltaJ = 0.0;

    /** Distinct full paths (by order-sensitive hash) that produced
     * this signature -> {count, first record seen}. Two or more
     * entries expose a signature collision of the arithmetic sum. */
    std::map<std::uint64_t, std::uint64_t> pathCounts;
    std::map<std::uint64_t, ProvenanceRecord> pathExamples;

    std::uint64_t hits() const
    {
        return outcomes[kOutcomeHitPrimary] +
               outcomes[kOutcomeHitBackup];
    }

    std::uint64_t misses() const
    {
        return outcomes[kOutcomeMissPrimary] +
               outcomes[kOutcomeMissBackup];
    }

    bool collides() const { return pathCounts.size() > 1; }
};

/**
 * Aggregation over a provenance log: per-signature accuracy/energy
 * attribution, top mispredictors and collision detection — shared by
 * pcap_explain, the signature_attribution report and the tests.
 */
class ProvenanceForensics
{
  public:
    void add(const ProvenanceRecord &record);

    /** Records folded in so far. */
    std::uint64_t records() const { return records_; }

    /** Records with no decision attached (no PCAP predictor decided
     * for the period — e.g. first I/O of a process). */
    std::uint64_t noDecision() const { return noDecision_; }

    /** Outcome counts over ALL records (with or without decision) —
     * must reconcile exactly with AccuracyStats for the same run. */
    const std::array<std::uint64_t, kProvenanceOutcomes> &
    outcomeTotals() const
    {
        return outcomeTotals_;
    }

    /** Net energy delta over all records (joules). */
    double energyDeltaJ() const { return energyDeltaJ_; }

    /** Per-signature summaries, ordered by signature value. */
    const std::map<std::uint32_t, SignatureSummary> &
    bySignature() const
    {
        return summaries_;
    }

    /** The @p k signatures with the most mispredictions (misses
     * desc, then periods desc, then signature asc), misses > 0. */
    std::vector<const SignatureSummary *>
    topMispredictors(std::size_t k) const;

    /** Signatures formed by more than one distinct PC path —
     * collisions of the 4-byte arithmetic sum. */
    std::vector<const SignatureSummary *> collisions() const;

  private:
    std::map<std::uint32_t, SignatureSummary> summaries_;
    std::array<std::uint64_t, kProvenanceOutcomes> outcomeTotals_{};
    std::uint64_t records_ = 0;
    std::uint64_t noDecision_ = 0;
    double energyDeltaJ_ = 0.0;
};

/** Sink that aggregates instead of serializing — the in-memory
 * consumer behind the signature_attribution report. */
class ForensicsSink final : public ProvenanceSink
{
  public:
    void write(const ProvenanceRecord &record) override
    {
        forensics_.add(record);
    }

    const ProvenanceForensics &forensics() const
    {
        return forensics_;
    }

  private:
    ProvenanceForensics forensics_;
};

} // namespace pcap::obs

#endif // PCAP_OBS_PROVENANCE_HPP
