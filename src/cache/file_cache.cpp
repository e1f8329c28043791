#include "cache/file_cache.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace pcap::cache {

namespace {

/** Block index used for a file's metadata (inode) probe on open(). */
constexpr std::uint64_t kMetadataBlockIndex = 0xffffffffull;

FileId
fileOfKey(std::uint64_t key)
{
    return static_cast<FileId>(key >> 32);
}

/** A flush-daemon write-back of @p blocks blocks of @p file. */
trace::DiskAccess
writeback(TimeUs time, FileId file, std::uint32_t blocks)
{
    trace::DiskAccess access;
    access.time = time;
    access.pid = kFlushDaemonPid;
    access.pc = kFlushDaemonPc;
    access.fd = -1;
    access.file = file;
    access.isWrite = true;
    access.blocks = blocks;
    return access;
}

} // namespace

std::string
CacheParams::validate() const
{
    if (blockSize == 0)
        return "blockSize must be positive";
    if (capacityBytes < blockSize)
        return "capacity smaller than one block";
    if (flushInterval <= 0)
        return "flushInterval must be positive";
    if (flushCheckPeriod <= 0 || flushCheckPeriod > flushInterval)
        return "flushCheckPeriod must be in (0, flushInterval]";
    return {};
}

FileCache::FileCache(const CacheParams &params)
    : params_(params), nextFlush_(params.flushCheckPeriod)
{
    const std::string problem = params_.validate();
    if (!problem.empty())
        fatal("FileCache: bad parameters: " + problem);
    const std::size_t capacity = params_.capacityBlocks();
    if (capacity >= kNoSlot)
        fatal("FileCache: capacity exceeds 2^32 blocks");
    slots_.resize(capacity);
    // A power of two at least twice the capacity keeps the index at
    // most half full, so probe sequences stay short.
    std::size_t positions = 2;
    indexShift_ = 63;
    while (positions < 2 * capacity) {
        positions *= 2;
        --indexShift_;
    }
    index_.assign(positions, kNoSlot);
    indexMask_ = positions - 1;
}

FileCache::BlockKey
FileCache::makeKey(FileId file, std::uint64_t block_index)
{
    if (block_index > kMetadataBlockIndex)
        panic("FileCache: block index exceeds 32 bits");
    return (static_cast<std::uint64_t>(file) << 32) | block_index;
}

std::size_t
FileCache::homeOf(BlockKey key) const
{
    // Fibonacci hashing: the top bits of the product mix both the
    // file id and the block index.
    return static_cast<std::size_t>(
        (key * 0x9e3779b97f4a7c15ull) >> indexShift_);
}

std::size_t
FileCache::probe(BlockKey key) const
{
    std::size_t position = homeOf(key);
    while (index_[position] != kNoSlot &&
           slots_[index_[position]].key != key)
        position = (position + 1) & indexMask_;
    return position;
}

void
FileCache::eraseIndexAt(std::size_t position)
{
    // Shift later entries of the probe run back into the hole unless
    // that would move one before its home position.
    std::size_t hole = position;
    for (std::size_t next = (hole + 1) & indexMask_;
         index_[next] != kNoSlot; next = (next + 1) & indexMask_) {
        const std::size_t home = homeOf(slots_[index_[next]].key);
        if (((next - home) & indexMask_) >=
            ((next - hole) & indexMask_)) {
            index_[hole] = index_[next];
            hole = next;
        }
    }
    index_[hole] = kNoSlot;
}

void
FileCache::unlink(std::uint32_t slot)
{
    Slot &block = slots_[slot];
    if (block.newer != kNoSlot)
        slots_[block.newer].older = block.older;
    else
        mru_ = block.older;
    if (block.older != kNoSlot)
        slots_[block.older].newer = block.newer;
    else
        lru_ = block.newer;
}

void
FileCache::pushMru(std::uint32_t slot)
{
    Slot &block = slots_[slot];
    block.newer = kNoSlot;
    block.older = mru_;
    if (mru_ != kNoSlot)
        slots_[mru_].newer = slot;
    else
        lru_ = slot;
    mru_ = slot;
}

void
FileCache::clear()
{
    std::fill(index_.begin(), index_.end(), kNoSlot);
    resident_ = 0;
    dirty_ = 0;
    mru_ = kNoSlot;
    lru_ = kNoSlot;
    nextFlush_ = params_.flushCheckPeriod;
}

std::uint32_t
FileCache::evictOne(TimeUs time, std::vector<trace::DiskAccess> &out)
{
    if (lru_ == kNoSlot)
        panic("FileCache::evictOne: cache empty");
    const std::uint32_t victim = lru_;
    const Slot &block = slots_[victim];
    eraseIndexAt(probe(block.key));
    unlink(victim);
    ++stats_.evictions;
    if (block.dirty) {
        --dirty_;
        out.push_back(writeback(time, fileOfKey(block.key), 1));
        ++stats_.writebackBlocks;
    }
    return victim;
}

bool
FileCache::touchBlock(BlockKey key, bool dirty, TimeUs time,
                      std::vector<trace::DiskAccess> &out)
{
    ++stats_.lookups;
    std::size_t position = probe(key);
    if (index_[position] != kNoSlot) {
        ++stats_.hits;
        const std::uint32_t slot = index_[position];
        if (slot != mru_) {
            unlink(slot);
            pushMru(slot);
        }
        Slot &block = slots_[slot];
        if (dirty) {
            // Re-dirtying refreshes the write-back timer, so data
            // being actively overwritten chases forward to the next
            // quiet period (the flush-timer behaviour the paper
            // notes was being tuned in the Linux community).
            if (!block.dirty)
                ++dirty_;
            block.dirty = true;
            block.dirtySince = time;
        }
        return true;
    }

    ++stats_.misses;
    std::uint32_t slot;
    if (resident_ < slots_.size()) {
        slot = static_cast<std::uint32_t>(resident_++);
    } else {
        slot = evictOne(time, out);
        // The eviction may have shifted this key's probe run.
        position = probe(key);
    }
    Slot &block = slots_[slot];
    block.key = key;
    block.dirty = dirty;
    block.dirtySince = time;
    if (dirty)
        ++dirty_;
    index_[position] = slot;
    pushMru(slot);
    return false;
}

bool
FileCache::anyDirtyExpired(TimeUs time) const
{
    std::size_t seen = 0;
    for (std::uint32_t slot = mru_; seen < dirty_;
         slot = slots_[slot].older) {
        const Slot &block = slots_[slot];
        if (!block.dirty)
            continue;
        if (time - block.dirtySince >= params_.flushInterval)
            return true;
        ++seen;
    }
    return false;
}

void
FileCache::writeBackAll(TimeUs time, std::vector<trace::DiskAccess> &out)
{
    if (dirty_ == 0)
        return;
    // Walk from the LRU end, so the first dirty block met names the
    // write-back's file, and stop once every dirty block is clean.
    const auto flushed = static_cast<std::uint32_t>(dirty_);
    FileId lru_file = 0;
    for (std::uint32_t slot = lru_; dirty_ > 0;
         slot = slots_[slot].newer) {
        Slot &block = slots_[slot];
        if (!block.dirty)
            continue;
        if (dirty_ == flushed)
            lru_file = fileOfKey(block.key);
        block.dirty = false;
        --dirty_;
    }
    out.push_back(writeback(time, lru_file, flushed));
    stats_.writebackBlocks += flushed;
}

void
FileCache::advanceTo(TimeUs time, std::vector<trace::DiskAccess> &out)
{
    while (nextFlush_ <= time) {
        const TimeUs flush_time = nextFlush_;
        nextFlush_ += params_.flushCheckPeriod;
        ++stats_.flushRuns;

        // Age-based write-back, like Linux pdflush: once any block
        // has been dirty for the full flush interval, the daemon
        // syncs the whole dirty set in one batch (coalescing avoids
        // back-to-back partial flushes).
        if (anyDirtyExpired(flush_time))
            writeBackAll(flush_time, out);
    }
}

void
FileCache::access(const trace::TraceEvent &event,
                  std::vector<trace::DiskAccess> &out)
{
    advanceTo(event.time, out);

    std::uint32_t missed = 0;
    const bool is_write = event.type == trace::EventType::Write;

    switch (event.type) {
      case trace::EventType::Read:
      case trace::EventType::Write: {
        const std::uint64_t first = event.offset / params_.blockSize;
        const std::uint64_t span = event.size == 0 ? 1 : event.size;
        const std::uint64_t last =
            (event.offset + span - 1) / params_.blockSize;
        for (std::uint64_t block = first; block <= last; ++block) {
            const bool hit = touchBlock(makeKey(event.file, block),
                                        is_write, event.time, out);
            // A miss reaches the disk for reads and for writes alike
            // (a write to an uncached block is a read-modify-write
            // fetch); a write *hit* is absorbed and written back
            // later by the flush daemon.
            if (!hit)
                ++missed;
        }
        break;
      }
      case trace::EventType::Open: {
        const bool hit =
            touchBlock(makeKey(event.file, kMetadataBlockIndex),
                       false, event.time, out);
        if (!hit)
            ++missed;
        break;
      }
      case trace::EventType::Close:
      case trace::EventType::Fork:
      case trace::EventType::Exit:
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

void
FileCache::flushAll(TimeUs time, std::vector<trace::DiskAccess> &out)
{
    advanceTo(time, out);
    writeBackAll(time, out);
}

std::vector<trace::DiskAccess>
filterTrace(const trace::Trace &trace, const CacheParams &params,
            CacheStats *stats_out)
{
    FileCache cache(params);
    std::vector<trace::DiskAccess> accesses;
    for (const auto &event : trace.events())
        cache.access(event, accesses);
    cache.flushAll(trace.endTime(), accesses);

    // Every access is emitted at the time of the event or flush tick
    // that caused it, and those arrive in time order, so the stream
    // is sorted by construction.
    const auto out_of_order = std::is_sorted_until(
        accesses.begin(), accesses.end(),
        [](const trace::DiskAccess &a, const trace::DiskAccess &b) {
            return a.time < b.time;
        });
    if (out_of_order != accesses.end()) {
        panic("filterTrace: " + trace.app() + " execution " +
              std::to_string(trace.execution()) +
              " produced accesses out of time order at index " +
              std::to_string(out_of_order - accesses.begin()));
    }
    if (stats_out)
        *stats_out = cache.stats();
    return accesses;
}

void
CacheStats::merge(const CacheStats &other)
{
    lookups += other.lookups;
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    writebackBlocks += other.writebackBlocks;
    flushRuns += other.flushRuns;
}

void
recordCacheMetrics(const CacheStats &stats,
                   const obs::ScopedMetrics &scope)
{
    scope.counter("pcap_file_cache_lookups_total").inc(stats.lookups);
    scope.counter("pcap_file_cache_hits_total").inc(stats.hits);
    scope.counter("pcap_file_cache_misses_total").inc(stats.misses);
    scope.counter("pcap_file_cache_evictions_total")
        .inc(stats.evictions);
    scope.counter("pcap_file_cache_writeback_blocks_total")
        .inc(stats.writebackBlocks);
    scope.counter("pcap_file_cache_flush_runs_total")
        .inc(stats.flushRuns);
}

} // namespace pcap::cache
