/**
 * @file
 * Tag-only set-associative cache model with true-LRU replacement, write-back
 * write-allocate policy, and way partitioning.
 *
 * Data values live in SimMemory; the cache tracks only tags and dirty bits
 * to produce hit/miss timing and energy events — the standard trace-driven
 * arrangement. Way partitioning (reserveWays) models the paper's L2 LUT,
 * which is carved out of a fixed number of last-level-cache ways
 * (Section 3.3): reserved ways are invisible to normal accesses.
 *
 * A per-set MRU way hint short-circuits the common repeated hit to one
 * tag compare before falling back to the full way scan; it is a pure
 * host-side accelerator and never changes hit/miss, LRU order, or victim
 * choice (DESIGN.md §7). Inside access() the hint probe only pays for
 * itself once the way scan it replaces is long enough — below
 * kMruScanMinAssoc ways the dependent mruWay_ load costs more than the
 * handful of well-predicted tag compares it saves, so the probe is
 * auto-disabled there. The hint array itself is always maintained, and
 * the inline tryMruHit() fast path (which replaces an out-of-line call,
 * a different trade-off) stays available at every associativity.
 */

#ifndef AXMEMO_MEMSYS_CACHE_HH
#define AXMEMO_MEMSYS_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/stats.hh"

namespace axmemo {

/** Geometry and timing of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    /** Total capacity in bytes (of the full array, before partitioning). */
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 4;
    unsigned lineSize = 64;
    /** Hit latency in cycles. */
    Cycle hitLatency = 1;
};

/** Result of one cache access. */
struct CacheAccessResult
{
    bool hit = false;
    /** A dirty victim was evicted and must be written downstream. */
    bool writeback = false;
    /** Line address of the written-back victim (valid iff writeback). */
    Addr writebackAddr = invalidAddr;
};

/**
 * One level of tag-only set-associative cache. The constructor validates
 * against @p config and keeps only the scalar geometry — the config (and
 * its name string) is not copied into every constructed level.
 */
class Cache
{
  public:
    /**
     * Associativity at or above which access() probes the MRU hint
     * before scanning. Measured crossover on the address stream the
     * micro suite's BM_CacheHinted/BM_CacheScan rows replay:
     * at 8 ways the plain scan wins (~0.92x hinted/scan), at 16 ways
     * the hint starts paying (~1.04x) and the gap widens with ways
     * (~1.3x at 32, ~2x at 64).
     */
    static constexpr unsigned kMruScanMinAssoc = 16;

    explicit Cache(const CacheConfig &config);

    /** Sets in the array. */
    unsigned numSets() const { return numSets_; }

    /** Ways visible to normal accesses (assoc minus reserved). */
    unsigned usableWays() const { return assoc_ - reservedWays_; }

    /** Line size in bytes. */
    unsigned lineSize() const { return 1u << lineShift_; }

    /**
     * Reserve @p ways ways of every set (e.g., for an in-LLC LUT). All
     * lines in reserved ways are invalidated (dirty ones are dropped: the
     * caller is expected to partition before use).
     */
    void reserveWays(unsigned ways);

    /** Currently reserved ways. */
    unsigned reservedWays() const { return reservedWays_; }

    /** Capacity available for caching after partitioning, bytes. */
    std::uint64_t usableBytes() const
    {
        return static_cast<std::uint64_t>(numSets_) * usableWays() *
               lineSize();
    }

    /**
     * Look up @p addr; on miss, allocate (evicting LRU) and mark dirty if
     * @p isWrite. On hit with @p isWrite, mark dirty.
     */
    CacheAccessResult access(Addr addr, bool isWrite);

    /**
     * Inline MRU-hint probe: if @p addr hits in the hinted way, apply
     * the exact hit side effects access() would (LRU stamp, dirty bit,
     * hit counter) and return true; otherwise change nothing and return
     * false. Lets callers keep the dominant repeated-hit case free of
     * any out-of-line call; access() after a false return behaves as if
     * this probe never happened.
     */
    bool
    tryMruHit(Addr addr, bool isWrite)
    {
        if (!mruEnabled_)
            return false;
        const unsigned set = setOf(addr);
        const unsigned hint = mruWay_[set];
        if (hint >= usableWays())
            return false;
        Line *line = lineAt(set, hint);
        if (!line->valid || line->tag != tagOf(addr))
            return false;
        line->lruStamp = ++stamp_;
        line->dirty = line->dirty || isWrite;
        ++hits_;
        return true;
    }

    /** Probe without side effects. */
    bool contains(Addr addr) const;

    /** Invalidate every line (dirty contents are dropped). */
    void invalidateAll();

    /** Disable/enable the MRU way hint (equivalence tests and the perf
     * harness; access sequences are identical either way). */
    void setMruHintEnabled(bool enabled) { mruEnabled_ = enabled; }

    /** Lifetime hit/miss counters. */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

    /** Valid lines currently resident in usable (non-reserved) ways. */
    std::uint64_t validLines() const;

    /** Valid-lines-per-set distribution over usable ways (its sample
     * sum equals validLines()). */
    Distribution occupancy() const;

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0;
        /** Higher = more recently used. */
        std::uint64_t lruStamp = 0;
    };

    std::uint64_t tagOf(Addr addr) const { return addr >> tagShift_; }
    unsigned setOf(Addr addr) const
    {
        return static_cast<unsigned>((addr >> lineShift_) & (numSets_ - 1));
    }
    Line *lineAt(unsigned set, unsigned way)
    {
        return &lines_[static_cast<std::size_t>(set) * assoc_ + way];
    }
    const Line *lineAt(unsigned set, unsigned way) const
    {
        return &lines_[static_cast<std::size_t>(set) * assoc_ + way];
    }

    unsigned assoc_;
    unsigned numSets_;
    unsigned lineShift_;
    unsigned tagShift_;
    unsigned reservedWays_ = 0;
    bool mruEnabled_ = true;
    /** Probe the hint inside access()? (assoc_ >= kMruScanMinAssoc) */
    bool mruInScan_ = false;
    std::uint64_t stamp_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
    std::vector<Line> lines_;
    /** Most-recently-hit way per set (a hint, never authoritative). */
    std::vector<std::uint8_t> mruWay_;
};

} // namespace axmemo

#endif // AXMEMO_MEMSYS_CACHE_HH
