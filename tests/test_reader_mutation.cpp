/**
 * @file
 * Seeded mutation tests for the binary readers of on-disk inputs: a
 * provenance log (.prov.bin), a workload-cache entry and a binary
 * trace. Each starts from a valid file and is mutated by byte flips,
 * truncations and oversized counts drawn from a fixed seed, so every
 * run replays the same mutations. A reader must either return a
 * diagnostic or return records whose fields are in range; under the
 * ASan+UBSan build (tools/run_sanitizers.sh) it must also do so
 * without a memory error or undefined behaviour.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/provenance.hpp"
#include "sim/input.hpp"
#include "sim/input_cache.hpp"
#include "trace/io.hpp"
#include "trace/trace.hpp"

namespace pcap {
namespace {

constexpr std::uint32_t kSeed = 20260421;
constexpr int kMutationsPerFormat = 400;

/** A count field of a format: its byte offset and width. */
struct CountField
{
    std::size_t offset = 0;
    std::size_t bytes = 8;
};

/** Counts no valid file of these sizes holds: past each reader's
 * limit, just below or at it, and far beyond the bytes present. */
constexpr std::uint64_t kOversized[] = {
    (1ull << 20),         (1ull << 20) + 1, (1ull << 26),
    (1ull << 26) + 1,     0xffffffffull,    1ull << 63,
    0xffffffffffffffffull};

void
putLe(std::string &bytes, std::size_t offset, std::uint64_t value,
      std::size_t width)
{
    for (std::size_t i = 0; i < width && offset + i < bytes.size(); ++i)
        bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
}

std::uint64_t
getLe(const std::string &bytes, std::size_t offset, std::size_t width)
{
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < width; ++i) {
        value |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(bytes[offset + i]))
                 << (8 * i);
    }
    return value;
}

/**
 * One seeded mutation of @p valid: flip one to four bytes, truncate,
 * write an oversized value into one of @p counts, or an oversized
 * count followed by a truncation. @p what describes it.
 */
std::string
mutate(const std::string &valid, const std::vector<CountField> &counts,
       std::mt19937 &rng, std::string &what)
{
    std::string bytes = valid;
    auto below = [&rng](std::size_t n) {
        return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
    };
    auto truncate = [&] {
        const std::size_t size = below(bytes.size());
        bytes.resize(size);
        what += " truncate to " + std::to_string(size);
    };
    auto oversize = [&] {
        const CountField &field = counts[below(counts.size())];
        const std::uint64_t value =
            kOversized[below(std::size(kOversized))];
        putLe(bytes, field.offset, value, field.bytes);
        what += " count@" + std::to_string(field.offset) + " = " +
                std::to_string(value);
    };
    switch (below(4)) {
      case 0:
        for (std::size_t flips = 1 + below(4); flips > 0; --flips) {
            const std::size_t at = below(bytes.size());
            const auto mask = static_cast<char>(1 + below(255));
            bytes[at] = static_cast<char>(bytes[at] ^ mask);
            what += " flip@" + std::to_string(at);
        }
        break;
      case 1:
        truncate();
        break;
      case 2:
        oversize();
        break;
      default:
        oversize();
        truncate();
        break;
    }
    return bytes;
}

/**
 * Run kMutationsPerFormat seeded mutations of @p valid through
 * @p read, which returns the reader's diagnostic and checks the
 * fields of whatever it accepted. Both outcomes must occur.
 */
void
runMutations(const std::string &valid,
             const std::vector<CountField> &counts,
             const std::function<std::string(const std::string &)> &read)
{
    std::mt19937 rng(kSeed);
    int accepted = 0;
    int rejected = 0;
    for (int i = 0; i < kMutationsPerFormat; ++i) {
        std::string what = "mutation " + std::to_string(i) + ":";
        const std::string bytes = mutate(valid, counts, rng, what);
        SCOPED_TRACE(what);
        if (read(bytes).empty())
            ++accepted;
        else
            ++rejected;
    }
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
}

struct TempDir
{
    TempDir()
    {
        path = (std::filesystem::temp_directory_path() /
                ("pcap-test-mutation-" + std::to_string(::getpid())))
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

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST(ReaderMutation, ProvenanceFile)
{
    TempDir dir;
    const std::string path = dir.path + "/cell.prov.bin";
    {
        obs::BinaryProvenanceWriter writer(path);
        for (int i = 0; i < 6; ++i) {
            obs::ProvenanceRecord record;
            record.startUs = 1000 * i;
            record.endUs = 1000 * i + 700;
            record.pid = i;
            record.outcome = static_cast<std::uint8_t>(i);
            record.source = static_cast<std::uint8_t>(i % 3);
            record.flags = obs::kProvHasDecision;
            record.pathTailLength = static_cast<std::uint8_t>(i);
            writer.write(record);
        }
        writer.close();
    }
    const std::string valid = readFileBytes(path);
    // The header's version and record size.
    const std::vector<CountField> counts = {{8, 4}, {12, 4}};
    ASSERT_EQ(getLe(valid, 12, 4), obs::kProvenanceRecordBytes);

    const std::string mutated = dir.path + "/mutated.prov.bin";
    runMutations(valid, counts, [&](const std::string &bytes) {
        std::ofstream(mutated, std::ios::binary | std::ios::trunc)
            << bytes;
        std::vector<obs::ProvenanceRecord> records;
        const std::string problem =
            obs::readProvenanceFile(mutated, records);
        if (problem.empty()) {
            EXPECT_LE(records.size() * obs::kProvenanceRecordBytes,
                      bytes.size());
            for (const obs::ProvenanceRecord &record : records) {
                EXPECT_LE(record.pathTailLength,
                          obs::kProvenancePathTail);
                EXPECT_LT(record.outcome, obs::kProvenanceOutcomes);
                EXPECT_LE(record.source, 2);
                EXPECT_EQ(record.flags &
                              ~(obs::kProvHasDecision |
                                obs::kProvEntryPresent |
                                obs::kProvPredicted),
                          0);
            }
        }
        return problem;
    });
}

/** A small time-ordered execution of @p accesses accesses. */
sim::ExecutionInput
syntheticInput(int execution, int accesses)
{
    sim::ExecutionInput input;
    input.app = "synthetic";
    input.execution = execution;
    for (int i = 0; i < accesses; ++i) {
        trace::DiskAccess access;
        access.time = 1000 * i;
        access.pid = 100 + i % 2;
        access.pc = 0x8048000u + static_cast<std::uint32_t>(i);
        access.isWrite = i % 3 == 0;
        input.accesses.push_back(access);
    }
    input.processes = {{100, 0, 1000 * accesses},
                       {101, 0, 1000 * accesses}};
    input.endTime = 1000 * accesses;
    input.tracedIos = static_cast<std::uint64_t>(accesses);
    input.finalize();
    return input;
}

TEST(ReaderMutation, WorkloadCacheEntry)
{
    sim::WorkloadKey key;
    key.seed = 42;
    key.app = "synthetic";
    const std::vector<sim::ExecutionInput> inputs = {
        syntheticInput(0, 5), syntheticInput(1, 3)};
    std::ostringstream os;
    sim::writeExecutionInputs(inputs, key, os);
    const std::string valid = os.str();

    // Layout: magic, version, the key echo, the execution count; per
    // execution its app name, execution, end time, traced I/Os and
    // six cache statistics, then the access count, the accesses, and
    // the span count.
    const std::size_t executionCount = 4 + 4 + 4 + key.canonical().size();
    const std::size_t firstAccessCount =
        executionCount + 8 + 4 + inputs[0].app.size() + 4 + 8 + 8 + 6 * 8;
    const std::size_t firstSpanCount =
        firstAccessCount + 8 + 5 * (8 + 4 + 4 + 4 + 4 + 1 + 4);
    ASSERT_EQ(getLe(valid, executionCount, 8), 2u);
    ASSERT_EQ(getLe(valid, firstAccessCount, 8), 5u);
    ASSERT_EQ(getLe(valid, firstSpanCount, 8), 2u);
    const std::vector<CountField> counts = {
        {executionCount, 8}, {firstAccessCount, 8}, {firstSpanCount, 8}};

    runMutations(valid, counts, [&](const std::string &bytes) {
        std::istringstream is(bytes);
        std::vector<sim::ExecutionInput> loaded;
        const std::string problem =
            sim::readExecutionInputs(is, key, loaded);
        if (problem.empty()) {
            // Nothing is made up: every access read is 29 bytes of
            // the input.
            EXPECT_LE(loaded.size(), 2u);
            for (const sim::ExecutionInput &input : loaded) {
                EXPECT_LE(input.accesses.size() * 29, bytes.size());
                for (std::size_t i = 1; i < input.accesses.size(); ++i)
                    EXPECT_LE(input.accesses[i - 1].time,
                              input.accesses[i].time);
                EXPECT_EQ(input.simEvents().size(),
                          input.accesses.size() +
                              2 * input.processes.size());
            }
        }
        return problem;
    });
}

TEST(ReaderMutation, BinaryTrace)
{
    trace::Trace original("synthetic", 3);
    for (int i = 0; i < 8; ++i) {
        trace::TraceEvent event;
        event.time = 100 * i;
        event.pid = 100;
        event.type = static_cast<trace::EventType>(i % 6);
        event.pc = 0x8048000u + static_cast<std::uint32_t>(i);
        event.fd = 3;
        event.file = 42;
        event.size = 4096;
        original.append(event);
    }
    std::ostringstream os;
    trace::writeBinary(original, os);
    const std::string valid = os.str();

    // Layout: magic, version, the app-name length and name, the
    // execution, then the event count.
    const std::size_t nameLength = 8;
    const std::size_t eventCount = 12 + original.app().size() + 4;
    ASSERT_EQ(getLe(valid, eventCount, 8), 8u);
    const std::vector<CountField> counts = {{nameLength, 4},
                                            {eventCount, 8}};

    runMutations(valid, counts, [&](const std::string &bytes) {
        std::istringstream is(bytes);
        trace::Trace loaded;
        const std::string problem = trace::readBinary(is, loaded);
        if (problem.empty()) {
            EXPECT_LE(loaded.app().size(), 4096u);
            EXPECT_LE(loaded.size() * 33, bytes.size());
            for (const trace::TraceEvent &event : loaded.events())
                EXPECT_LE(static_cast<int>(event.type),
                          static_cast<int>(trace::EventType::Exit));
        }
        return problem;
    });
}

} // namespace
} // namespace pcap
