/**
 * @file
 * The memoization lookup table (Section 3.3, Fig. 4).
 *
 * The LUT is organized like a set-associative cache whose "address" is the
 * CRC hash of the memoization inputs. One set occupies exactly one 64-byte
 * last-level-cache line: either 8 entries of {4 B tag, 4 B data} or 4
 * entries of {4 B tag, 8 B data} (half the tag slots unused). Low CRC bits
 * index the set; the tag stores the upper CRC bits, a valid bit, and the
 * 3-bit LUT_ID so multiple logical LUTs share one physical array.
 */

#ifndef AXMEMO_MEMO_LUT_HH
#define AXMEMO_MEMO_LUT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace axmemo {

/** Geometry of one LUT level. */
struct LutConfig
{
    std::string name = "lut";
    /** Total array capacity in bytes (tags + data). */
    std::uint64_t sizeBytes = 8 * 1024;
    /** 4 or 8; selects 8-way or 4-way set layout (Fig. 4). */
    unsigned dataBytes = 4;

    /** Bytes per set: one LLC line. */
    static constexpr unsigned setBytes = 64;

    /** Entries per set for this data width. */
    unsigned
    ways() const
    {
        return dataBytes == 8 ? 4 : 8;
    }
};

/**
 * One level of memoization lookup table. The constructor validates
 * against @p config and keeps only the scalar geometry — the config (and
 * its name string) is not copied into every constructed level. A per-set
 * MRU way hint accelerates the common repeated hit without changing
 * hit/miss, LRU order, or victim choice (DESIGN.md §7).
 */
class LookupTable
{
  public:
    explicit LookupTable(const LutConfig &config);

    unsigned numSets() const { return numSets_; }
    unsigned ways() const { return ways_; }

    /**
     * Find the entry tagged {lutId, hash}; refreshes LRU on hit.
     * @return the stored data on hit.
     */
    std::optional<std::uint64_t> lookup(LutId lutId, std::uint64_t hash);

    /** Probe without LRU side effects. */
    bool contains(LutId lutId, std::uint64_t hash) const;

    /**
     * Insert (or overwrite) the entry for {lutId, hash}.
     * @return the evicted valid victim, if any (for L1 -> L2 spill).
     */
    struct Victim
    {
        LutId lutId;
        std::uint64_t hash;
        std::uint64_t data;
    };
    std::optional<Victim> insert(LutId lutId, std::uint64_t hash,
                                 std::uint64_t data);

    /** Drop the entry for {lutId, hash} if present (back-invalidation). */
    void erase(LutId lutId, std::uint64_t hash);

    /** Drop every entry of one logical LUT (the invalidate instruction). */
    void invalidateLut(LutId lutId);

    /** Drop everything. */
    void invalidateAll();

    /** Number of currently valid entries. */
    std::uint64_t validCount() const;

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Entry
    {
        bool valid = false;
        LutId lutId = 0;
        /** Full hash retained; hardware stores only the upper bits, and
         * the set index supplies the rest — equivalent information. */
        std::uint64_t hash = 0;
        std::uint64_t data = 0;
        std::uint64_t lruStamp = 0;
    };

    unsigned setOf(std::uint64_t hash) const
    {
        return static_cast<unsigned>(hash & (numSets_ - 1));
    }
    Entry *entryAt(unsigned set, unsigned way)
    {
        return &entries_[static_cast<std::size_t>(set) * ways_ + way];
    }
    const Entry *entryAt(unsigned set, unsigned way) const
    {
        return &entries_[static_cast<std::size_t>(set) * ways_ + way];
    }

    unsigned numSets_;
    unsigned ways_;
    std::uint64_t stamp_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::vector<Entry> entries_;
    /** Most-recently-hit way per set (a hint, never authoritative). */
    std::vector<std::uint8_t> mruWay_;
};

} // namespace axmemo

#endif // AXMEMO_MEMO_LUT_HH
