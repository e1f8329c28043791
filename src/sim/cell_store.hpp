/**
 * @file
 * Cross-engine memoization of replay cells.
 *
 * The TraceStore (trace_store.hpp) shares raw *traces* between
 * evaluations; the CellStore closes the PR6 leftover and shares
 * finished *results*. An ablation sweep that instantiates several
 * engines over an identical (config, policy) pair — or a standalone
 * run rebuilt next to the shared engine — replays the cell once and
 * every other engine gets a lookup.
 *
 * Keys are full canonical strings (configCacheKey + mode + app +
 * policyCacheKey), never hashes, so distinct configurations can
 * never collide into one slot. The store follows the call_once memo
 * idiom of TraceStore: thread-safe, compute-once, immutable values.
 *
 * A store hit skips the replay — and with it the cell's metric,
 * provenance and timeline side effects. ParallelEvaluation therefore
 * bypasses the store whenever per-cell artifacts were requested
 * (provenanceDir/timelineDir); plain metric registries accept that a
 * reused cell records its series only in the engine that computed it.
 */

#ifndef PCAP_SIM_CELL_STORE_HPP
#define PCAP_SIM_CELL_STORE_HPP

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "sim/experiment.hpp"

namespace pcap::sim {

/** Thread-safe memo of finished simulation cells, shared between
 * evaluation engines (via ParallelOptions::cellStore). */
class CellStore
{
  public:
    /** Local-accuracy cell: compute once per key, then share. */
    AccuracyStats
    localAccuracy(const std::string &key,
                  const std::function<AccuracyStats()> &compute);

    /** Global (or multi-state) run cell. */
    GlobalOutcome
    globalOutcome(const std::string &key,
                  const std::function<GlobalOutcome()> &compute);

    /** Base/ideal run cell. */
    RunResult runResult(const std::string &key,
                        const std::function<RunResult()> &compute);

    /** Lookups satisfied without replaying. */
    std::uint64_t hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }

    /** Cells actually replayed (first request per key). */
    std::uint64_t computed() const
    {
        return computed_.load(std::memory_order_relaxed);
    }

  private:
    template <typename T> struct Memo
    {
        std::once_flag once;
        T value{};
    };

    template <typename T>
    T memoized(std::map<std::string, std::shared_ptr<Memo<T>>> &map,
               const std::string &key,
               const std::function<T()> &compute);

    std::mutex mutex_; ///< guards the maps (not the memos)
    std::map<std::string, std::shared_ptr<Memo<AccuracyStats>>>
        locals_;
    std::map<std::string, std::shared_ptr<Memo<GlobalOutcome>>>
        globals_;
    std::map<std::string, std::shared_ptr<Memo<RunResult>>> runs_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> computed_{0};
};

} // namespace pcap::sim

#endif // PCAP_SIM_CELL_STORE_HPP
