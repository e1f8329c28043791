/**
 * @file
 * File-cache tests: LRU behaviour, write-allocate semantics,
 * age-based coalesced flushes, eviction write-backs and the
 * trace-filter pipeline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <unordered_map>

#include "cache/file_cache.hpp"
#include "trace/builder.hpp"
#include "util/rng.hpp"
#include "workload/app_model.hpp"

namespace pcap::cache {
namespace {

trace::TraceEvent
readEvent(TimeUs time, FileId file, std::uint64_t offset,
          std::uint32_t size, Pid pid = 10, Address pc = 0x1000)
{
    trace::TraceEvent event;
    event.time = time;
    event.pid = pid;
    event.type = trace::EventType::Read;
    event.pc = pc;
    event.fd = 3;
    event.file = file;
    event.offset = offset;
    event.size = size;
    return event;
}

trace::TraceEvent
writeEvent(TimeUs time, FileId file, std::uint64_t offset,
           std::uint32_t size)
{
    trace::TraceEvent event = readEvent(time, file, offset, size);
    event.type = trace::EventType::Write;
    return event;
}

CacheParams
smallCache(std::size_t blocks = 4)
{
    CacheParams params;
    params.blockSize = 4096;
    params.capacityBytes = blocks * 4096;
    return params;
}

TEST(CacheParams, DefaultsMatchPaper)
{
    const CacheParams params;
    EXPECT_EQ(params.capacityBytes, 256u * 1024u);
    EXPECT_EQ(params.blockSize, 4096u);
    EXPECT_EQ(params.flushInterval, secondsUs(30));
    EXPECT_EQ(params.capacityBlocks(), 64u);
    EXPECT_EQ(params.validate(), "");
}

TEST(CacheParams, ValidateCatchesBadConfigs)
{
    CacheParams params;
    params.blockSize = 0;
    EXPECT_NE(params.validate(), "");

    params = CacheParams{};
    params.capacityBytes = 100;
    EXPECT_NE(params.validate(), "");

    params = CacheParams{};
    params.flushCheckPeriod = params.flushInterval + 1;
    EXPECT_NE(params.validate(), "");
}

TEST(FileCache, FirstReadMissesSecondHits)
{
    FileCache cache(smallCache());
    std::vector<trace::DiskAccess> out;

    cache.access(readEvent(100, 5, 0, 4096), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].blocks, 1u);
    EXPECT_FALSE(out[0].isWrite);
    EXPECT_EQ(out[0].pid, 10);
    EXPECT_EQ(out[0].pc, 0x1000u);

    out.clear();
    cache.access(readEvent(200, 5, 0, 4096), out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(FileCache, MultiBlockReadCountsEveryBlock)
{
    FileCache cache(smallCache(8));
    std::vector<trace::DiskAccess> out;
    cache.access(readEvent(100, 5, 0, 3 * 4096), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].blocks, 3u);
    EXPECT_EQ(cache.residentBlocks(), 3u);
}

TEST(FileCache, UnalignedAccessSpansBlocks)
{
    FileCache cache(smallCache(8));
    std::vector<trace::DiskAccess> out;
    // 2 bytes straddling a block boundary touch two blocks.
    cache.access(readEvent(100, 5, 4095, 2), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].blocks, 2u);
}

TEST(FileCache, LruEvictsLeastRecentlyUsed)
{
    FileCache cache(smallCache(2));
    std::vector<trace::DiskAccess> out;
    cache.access(readEvent(100, 1, 0, 4096), out);
    cache.access(readEvent(200, 2, 0, 4096), out);
    // Touch file 1 so file 2 becomes LRU.
    cache.access(readEvent(300, 1, 0, 4096), out);
    cache.access(readEvent(400, 3, 0, 4096), out); // evicts file 2

    out.clear();
    cache.access(readEvent(500, 1, 0, 4096), out);
    EXPECT_TRUE(out.empty()); // still resident
    cache.access(readEvent(600, 2, 0, 4096), out);
    EXPECT_EQ(out.size(), 1u); // was evicted
}

TEST(FileCache, NeverExceedsCapacity)
{
    FileCache cache(smallCache(4));
    std::vector<trace::DiskAccess> out;
    for (int i = 0; i < 100; ++i)
        cache.access(readEvent(100 * (i + 1), i, 0, 4096), out);
    EXPECT_EQ(cache.residentBlocks(), 4u);
    EXPECT_EQ(cache.stats().evictions, 96u);
}

TEST(FileCache, WriteMissFetchesFromDisk)
{
    FileCache cache(smallCache());
    std::vector<trace::DiskAccess> out;
    cache.access(writeEvent(100, 5, 0, 4096), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].isWrite);
    EXPECT_EQ(cache.dirtyBlocks(), 1u);
}

TEST(FileCache, WriteHitIsAbsorbed)
{
    FileCache cache(smallCache());
    std::vector<trace::DiskAccess> out;
    cache.access(readEvent(100, 5, 0, 4096), out);
    out.clear();
    cache.access(writeEvent(200, 5, 0, 4096), out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(cache.dirtyBlocks(), 1u);
}

TEST(FileCache, DirtyBlockFlushesAfterInterval)
{
    CacheParams params = smallCache();
    FileCache cache(params);
    std::vector<trace::DiskAccess> out;
    cache.access(writeEvent(secondsUs(1), 5, 0, 4096), out);
    out.clear();

    // Just before expiry: nothing flushed.
    cache.advanceTo(secondsUs(1) + params.flushInterval -
                        secondsUs(1),
                    out);
    EXPECT_TRUE(out.empty());

    // After expiry (next 5 s check): the write-back appears,
    // attributed to the flush daemon.
    cache.advanceTo(secondsUs(40), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].pid, kFlushDaemonPid);
    EXPECT_EQ(out[0].pc, kFlushDaemonPc);
    EXPECT_TRUE(out[0].isWrite);
    EXPECT_EQ(cache.dirtyBlocks(), 0u);
}

TEST(FileCache, RedirtyRefreshesWriteBackTimer)
{
    FileCache cache(smallCache());
    std::vector<trace::DiskAccess> out;
    cache.access(writeEvent(secondsUs(1), 5, 0, 4096), out);
    // Re-dirty at 20 s: the write-back clock restarts.
    cache.access(writeEvent(secondsUs(20), 5, 0, 4096), out);
    out.clear();
    cache.advanceTo(secondsUs(40), out);
    EXPECT_TRUE(out.empty()); // 40 - 20 < 30
    cache.advanceTo(secondsUs(55), out);
    EXPECT_EQ(out.size(), 1u);
}

TEST(FileCache, FlushCoalescesWholeDirtySet)
{
    FileCache cache(smallCache(8));
    std::vector<trace::DiskAccess> out;
    cache.access(writeEvent(secondsUs(1), 5, 0, 4096), out);
    cache.access(writeEvent(secondsUs(28), 6, 0, 4096), out);
    out.clear();
    // At ~31 s the first block expires; the second (only 3 s dirty)
    // must be written back in the same batch.
    cache.advanceTo(secondsUs(36), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].blocks, 2u);
    EXPECT_EQ(cache.dirtyBlocks(), 0u);
}

TEST(FileCache, EvictionWritesBackDirtyVictim)
{
    FileCache cache(smallCache(1));
    std::vector<trace::DiskAccess> out;
    cache.access(writeEvent(100, 5, 0, 4096), out);
    out.clear();
    cache.access(readEvent(200, 6, 0, 4096), out);
    // Two accesses: the eviction write-back of file 5 and the read
    // miss of file 6.
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0].isWrite);
    EXPECT_EQ(out[0].pid, kFlushDaemonPid);
    EXPECT_EQ(out[0].file, 5u);
    EXPECT_FALSE(out[1].isWrite);
}

TEST(FileCache, OpenProbesMetadataOnce)
{
    FileCache cache(smallCache());
    std::vector<trace::DiskAccess> out;
    trace::TraceEvent open = readEvent(100, 5, 0, 0);
    open.type = trace::EventType::Open;
    cache.access(open, out);
    EXPECT_EQ(out.size(), 1u);
    out.clear();
    open.time = 200;
    cache.access(open, out);
    EXPECT_TRUE(out.empty()); // metadata now cached
}

TEST(FileCache, MetadataAndDataBlocksAreDistinct)
{
    FileCache cache(smallCache());
    std::vector<trace::DiskAccess> out;
    cache.access(readEvent(100, 5, 0, 4096), out);
    out.clear();
    trace::TraceEvent open = readEvent(200, 5, 0, 0);
    open.type = trace::EventType::Open;
    cache.access(open, out);
    EXPECT_EQ(out.size(), 1u); // inode probe still misses
}

TEST(FileCache, LifecycleEventsAreIgnored)
{
    FileCache cache(smallCache());
    std::vector<trace::DiskAccess> out;
    trace::TraceEvent fork = readEvent(100, 5, 0, 0);
    fork.type = trace::EventType::Fork;
    cache.access(fork, out);
    trace::TraceEvent close = readEvent(200, 5, 0, 0);
    close.type = trace::EventType::Close;
    cache.access(close, out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(cache.stats().lookups, 0u);
}

TEST(FileCache, FlushAllDrainsEverything)
{
    FileCache cache(smallCache(8));
    std::vector<trace::DiskAccess> out;
    cache.access(writeEvent(100, 5, 0, 2 * 4096), out);
    out.clear();
    cache.flushAll(secondsUs(2), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].blocks, 2u);
    EXPECT_EQ(cache.dirtyBlocks(), 0u);
}

TEST(FileCache, ClearColdStartsTheCache)
{
    FileCache cache(smallCache());
    std::vector<trace::DiskAccess> out;
    cache.access(readEvent(100, 5, 0, 4096), out);
    cache.clear();
    EXPECT_EQ(cache.residentBlocks(), 0u);
    out.clear();
    cache.access(readEvent(200, 5, 0, 4096), out);
    EXPECT_EQ(out.size(), 1u); // misses again
}

TEST(FilterTrace, ProducesSortedAccessesAndStats)
{
    trace::TraceBuilder builder("app", 0, 10);
    builder.io(secondsUs(1), 10, trace::EventType::Read, 0x1000, 3,
               5, 0, 8192);
    builder.io(secondsUs(2), 10, trace::EventType::Write, 0x2000, 3,
               5, 0, 4096);
    builder.io(secondsUs(3), 10, trace::EventType::Read, 0x3000, 3,
               6, 0, 4096);
    const trace::Trace trace = builder.finish(secondsUs(60));

    CacheStats stats;
    const auto accesses = filterTrace(trace, smallCache(8), &stats);

    for (std::size_t i = 1; i < accesses.size(); ++i)
        EXPECT_LE(accesses[i - 1].time, accesses[i].time);
    EXPECT_GT(stats.lookups, 0u);
    EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
    // The write at 2 s hits blocks read at 1 s (absorbed), then the
    // final flush at 60 s writes it back.
    EXPECT_GE(stats.writebackBlocks, 1u);
    EXPECT_TRUE(accesses.back().isWrite);
    EXPECT_EQ(accesses.back().pid, kFlushDaemonPid);
}

TEST(FilterTrace, HitRatioReflectsRereads)
{
    trace::TraceBuilder builder("app", 0, 10);
    for (int i = 0; i < 10; ++i) {
        builder.io(secondsUs(i + 1), 10, trace::EventType::Read,
                   0x1000, 3, 5, 0, 4096);
    }
    const trace::Trace trace = builder.finish(secondsUs(20));
    CacheStats stats;
    filterTrace(trace, smallCache(8), &stats);
    EXPECT_DOUBLE_EQ(stats.hitRatio(), 0.9);
}

// ---------------------------------------------------------------
// Parity with a reference LRU: FileCache's slot array and
// open-addressing index against the straightforward std::list +
// std::unordered_map implementation it replaced.
// ---------------------------------------------------------------

/** The original FileCache, kept as a test oracle. */
class ReferenceFileCache
{
  public:
    explicit ReferenceFileCache(const CacheParams &params)
        : params_(params), nextFlush_(params.flushCheckPeriod)
    {
    }

    void advanceTo(TimeUs time, std::vector<trace::DiskAccess> &out)
    {
        while (nextFlush_ <= time) {
            const TimeUs flush_time = nextFlush_;
            nextFlush_ += params_.flushCheckPeriod;
            ++stats_.flushRuns;
            bool expired = false;
            for (const Block &block : lru_) {
                if (block.dirty && flush_time - block.dirtySince >=
                                       params_.flushInterval) {
                    expired = true;
                    break;
                }
            }
            if (expired)
                writeBackAll(flush_time, out);
        }
    }

    void access(const trace::TraceEvent &event,
                std::vector<trace::DiskAccess> &out)
    {
        advanceTo(event.time, out);
        std::uint32_t missed = 0;
        const bool is_write = event.type == trace::EventType::Write;
        const std::uint64_t file = static_cast<std::uint64_t>(event.file)
                                   << 32;
        switch (event.type) {
          case trace::EventType::Read:
          case trace::EventType::Write: {
            const std::uint64_t first = event.offset / params_.blockSize;
            const std::uint64_t span = event.size == 0 ? 1 : event.size;
            const std::uint64_t last =
                (event.offset + span - 1) / params_.blockSize;
            for (std::uint64_t block = first; block <= last; ++block) {
                if (!touch(file | block, is_write, event.time, out))
                    ++missed;
            }
            break;
          }
          case trace::EventType::Open:
            if (!touch(file | 0xffffffffull, false, event.time, out))
                ++missed;
            break;
          default:
            return;
        }
        if (missed > 0) {
            trace::DiskAccess access;
            access.time = event.time;
            access.pid = event.pid;
            access.pc = event.pc;
            access.fd = event.fd;
            access.file = event.file;
            access.isWrite = is_write;
            access.blocks = missed;
            out.push_back(access);
        }
    }

    void flushAll(TimeUs time, std::vector<trace::DiskAccess> &out)
    {
        advanceTo(time, out);
        writeBackAll(time, out);
    }

    const CacheStats &stats() const { return stats_; }
    std::size_t residentBlocks() const { return map_.size(); }
    std::size_t dirtyBlocks() const
    {
        return static_cast<std::size_t>(std::count_if(
            lru_.begin(), lru_.end(),
            [](const Block &block) { return block.dirty; }));
    }

  private:
    struct Block
    {
        std::uint64_t key;
        bool dirty;
        TimeUs dirtySince;
    };

    static trace::DiskAccess writeback(TimeUs time, std::uint64_t key,
                                       std::uint32_t blocks)
    {
        trace::DiskAccess access;
        access.time = time;
        access.pid = kFlushDaemonPid;
        access.pc = kFlushDaemonPc;
        access.fd = -1;
        access.file = static_cast<FileId>(key >> 32);
        access.isWrite = true;
        access.blocks = blocks;
        return access;
    }

    void writeBackAll(TimeUs time, std::vector<trace::DiskAccess> &out)
    {
        std::uint32_t flushed = 0;
        std::uint64_t any_key = 0;
        for (Block &block : lru_) {
            if (block.dirty) {
                block.dirty = false;
                ++flushed;
                any_key = block.key;
            }
        }
        if (flushed > 0) {
            out.push_back(writeback(time, any_key, flushed));
            stats_.writebackBlocks += flushed;
        }
    }

    bool touch(std::uint64_t key, bool dirty, TimeUs time,
               std::vector<trace::DiskAccess> &out)
    {
        ++stats_.lookups;
        const auto it = map_.find(key);
        if (it != map_.end()) {
            ++stats_.hits;
            lru_.splice(lru_.begin(), lru_, it->second);
            if (dirty) {
                it->second->dirty = true;
                it->second->dirtySince = time;
            }
            return true;
        }
        ++stats_.misses;
        while (map_.size() >= params_.capacityBlocks()) {
            const Block victim = lru_.back();
            map_.erase(victim.key);
            lru_.pop_back();
            ++stats_.evictions;
            if (victim.dirty) {
                out.push_back(writeback(time, victim.key, 1));
                ++stats_.writebackBlocks;
            }
        }
        lru_.push_front(Block{key, dirty, time});
        map_[key] = lru_.begin();
        return false;
    }

    CacheParams params_;
    CacheStats stats_;
    std::list<Block> lru_; // front = most recently used
    std::unordered_map<std::uint64_t, std::list<Block>::iterator> map_;
    TimeUs nextFlush_;
};

/** The six cache sizes of the ablation sweep, in KB. */
constexpr std::size_t kSweepKb[] = {64, 128, 256, 512, 1024, 4096};

/**
 * A random event stream: a working set of files larger than the
 * biggest cache around a hot set smaller than most sizes, mixed
 * reads/writes/opens/closes, equal timestamps, events at the exact
 * time of a flush check (default period) and gaps long enough for
 * dirty blocks to expire.
 */
std::vector<trace::TraceEvent>
randomEvents(std::uint64_t seed, std::size_t count)
{
    Rng rng(seed);
    std::vector<trace::TraceEvent> events;
    events.reserve(count);
    TimeUs time = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const auto roll = rng.uniformInt(0, 99);
        if (roll < 30)
            time += 0; // same timestamp as the previous event
        else if (roll < 93)
            time += rng.uniformInt(1, millisUs(500));
        else if (roll < 95) // on the next flush check: it runs first
            time = (time / secondsUs(5) + 1) * secondsUs(5);
        else
            time += rng.uniformInt(secondsUs(5), secondsUs(45));
        trace::TraceEvent event;
        event.time = time;
        event.pid = static_cast<Pid>(rng.uniformInt(1, 4));
        event.pc = 0x1000 + 0x10 * static_cast<Address>(
                                        rng.uniformInt(0, 31));
        event.fd = static_cast<Fd>(rng.uniformInt(3, 9));
        // Half the events hit four hot files' first 256 KB, so every
        // size sees hits, re-dirtied blocks and MRU moves as well.
        const bool hot = rng.uniformInt(0, 1) == 0;
        event.file = static_cast<FileId>(rng.uniformInt(1, hot ? 4 : 40));
        const auto kind = rng.uniformInt(0, 9);
        event.type = kind < 5   ? trace::EventType::Read
                     : kind < 8 ? trace::EventType::Write
                     : kind < 9 ? trace::EventType::Open
                                : trace::EventType::Close;
        event.offset = static_cast<std::uint64_t>(
            rng.uniformInt(0, (hot ? 256 : 2048) * 1024));
        event.size = static_cast<std::uint32_t>(
            rng.uniformInt(0, 64 * 1024));
        events.push_back(event);
    }
    return events;
}

/** Feed @p events to both caches; every output and statistic must
 * agree after every event (occupancy every 16th). @p stats receives
 * the final statistics. */
void
expectSameAsReference(const std::vector<trace::TraceEvent> &events,
                      TimeUs end_time, const CacheParams &params,
                      CacheStats &stats)
{
    FileCache cache(params);
    ReferenceFileCache reference(params);
    std::vector<trace::DiskAccess> out;
    std::vector<trace::DiskAccess> expected;
    for (std::size_t i = 0; i < events.size(); ++i) {
        cache.access(events[i], out);
        reference.access(events[i], expected);
        ASSERT_EQ(out, expected) << "after event " << i;
        ASSERT_EQ(cache.stats(), reference.stats());
        if (i % 16 == 0) {
            ASSERT_EQ(cache.residentBlocks(),
                      reference.residentBlocks());
            ASSERT_EQ(cache.dirtyBlocks(), reference.dirtyBlocks());
        }
    }
    cache.flushAll(end_time, out);
    reference.flushAll(end_time, expected);
    EXPECT_EQ(out, expected);
    EXPECT_EQ(cache.stats(), reference.stats());
    EXPECT_EQ(cache.dirtyBlocks(), 0u);
    stats = cache.stats();
}

TEST(FileCacheParity, RandomizedStreamsMatchReferenceLruAtSweepSizes)
{
    for (const std::size_t kb : kSweepKb) {
        CacheParams params;
        params.capacityBytes = kb * 1024;
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE("cache " + std::to_string(kb) + " KB, seed " +
                         std::to_string(seed));
            const auto events = randomEvents(seed * 7919 + kb, 3000);
            CacheStats stats;
            expectSameAsReference(events,
                                  events.back().time + secondsUs(90),
                                  params, stats);
            EXPECT_GT(stats.hits, 100u);
        }
    }
}

TEST(FileCacheParity, TinyCachesMatchReferenceLru)
{
    // One- and two-block caches evict on nearly every lookup, which
    // stresses the index's backward-shift deletion.
    for (const std::size_t blocks : {1, 2, 3}) {
        SCOPED_TRACE(std::to_string(blocks) + " blocks");
        const auto events = randomEvents(blocks, 3000);
        CacheStats stats;
        expectSameAsReference(events, events.back().time,
                              smallCache(blocks), stats);
    }
}

TEST(FileCacheParity, AppModelTracesFilterLikeReferenceLru)
{
    // filterTrace over every app model's first execution, at every
    // sweep size, against the reference LRU plus the stable time sort
    // the old filter applied.
    for (const std::string &app : workload::standardAppNames()) {
        Rng rng = Rng(42 ^ hashString(app)).fork(0);
        const trace::Trace trace =
            workload::makeApp(app)->generate(0, rng);
        for (const std::size_t kb : kSweepKb) {
            SCOPED_TRACE(app + " at " + std::to_string(kb) + " KB");
            CacheParams params;
            params.capacityBytes = kb * 1024;

            ReferenceFileCache reference(params);
            std::vector<trace::DiskAccess> expected;
            for (const auto &event : trace.events())
                reference.access(event, expected);
            reference.flushAll(trace.endTime(), expected);
            std::stable_sort(expected.begin(), expected.end(),
                             [](const trace::DiskAccess &a,
                                const trace::DiskAccess &b) {
                                 return a.time < b.time;
                             });

            CacheStats stats;
            EXPECT_EQ(filterTrace(trace, params, &stats), expected);
            EXPECT_EQ(stats, reference.stats());
        }
    }
}

} // namespace
} // namespace pcap::cache
