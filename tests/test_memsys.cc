/**
 * @file
 * Memory-system tests: sparse simulated memory, set-associative cache
 * behaviour (LRU, write-back, way partitioning), the DRAM open-row
 * model, and the two-level hierarchy's latencies and event counts.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/rng.hh"
#include "memo/lut.hh"
#include "memsys/cache.hh"
#include "memsys/dram.hh"
#include "memsys/hierarchy.hh"
#include "memsys/sim_memory.hh"

namespace axmemo {
namespace {

// ---------------------------------------------------------- SimMemory

TEST(SimMemory, ReadWriteWidths)
{
    SimMemory mem;
    mem.write(0x1000, 0x1122334455667788ull, 8);
    EXPECT_EQ(mem.read(0x1000, 8), 0x1122334455667788ull);
    EXPECT_EQ(mem.read(0x1000, 4), 0x55667788u);
    EXPECT_EQ(mem.read(0x1000, 2), 0x7788u);
    EXPECT_EQ(mem.read(0x1000, 1), 0x88u);
}

TEST(SimMemory, LittleEndianLayout)
{
    SimMemory mem;
    mem.write32(0x2000, 0xdeadbeef);
    EXPECT_EQ(mem.read8(0x2000), 0xef);
    EXPECT_EQ(mem.read8(0x2003), 0xde);
}

TEST(SimMemory, UntouchedMemoryReadsZero)
{
    SimMemory mem;
    EXPECT_EQ(mem.read64(0x123456789abcull), 0u);
}

TEST(SimMemory, CrossPageAccess)
{
    SimMemory mem;
    const Addr addr = SimMemory::pageSize - 3;
    mem.write64(addr, 0xa1b2c3d4e5f60718ull);
    EXPECT_EQ(mem.read64(addr), 0xa1b2c3d4e5f60718ull);
}

TEST(SimMemory, SparsePages)
{
    SimMemory mem;
    mem.write8(0, 1);
    mem.write8(1ull << 30, 2); // 1 GB away: only 2 pages materialize
    EXPECT_EQ(mem.pageCount(), 2u);
}

TEST(SimMemory, FloatHelpers)
{
    SimMemory mem;
    mem.writeFloat(0x100, 3.25f);
    EXPECT_EQ(mem.readFloat(0x100), 3.25f);
    mem.writeDouble(0x108, -2.5);
    EXPECT_EQ(mem.readDouble(0x108), -2.5);
    mem.writeFloats(0x200, {1.0f, 2.0f, 3.0f});
    const auto back = mem.readFloats(0x200, 3);
    EXPECT_EQ(back, (std::vector<float>{1.0f, 2.0f, 3.0f}));
}

TEST(SimMemory, BulkLoadStore)
{
    SimMemory mem;
    const std::uint8_t src[5] = {1, 2, 3, 4, 5};
    mem.load(0x300, src, 5);
    std::uint8_t dst[5] = {};
    mem.store(0x300, dst, 5);
    EXPECT_EQ(std::memcmp(src, dst, 5), 0);
}

TEST(SimMemory, AllocateAligned)
{
    SimMemory mem;
    const Addr a = mem.allocate(10);
    const Addr b = mem.allocate(100);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 10);
}

TEST(SimMemory, ClearResets)
{
    SimMemory mem;
    mem.write8(0x40, 9);
    const Addr first = mem.allocate(8);
    mem.clear();
    EXPECT_EQ(mem.read8(0x40), 0);
    EXPECT_EQ(mem.allocate(8), first);
}

TEST(SimMemory, BadWidthPanics)
{
    SimMemory mem;
    EXPECT_THROW(mem.read(0, 0), std::logic_error);
    EXPECT_THROW(mem.read(0, 9), std::logic_error);
}

TEST(SimMemory, AllocateOverflowFatal)
{
    SimMemory mem;
    // A length whose 64-byte round-up wraps.
    EXPECT_THROW(mem.allocate(~0ull - 10), std::runtime_error);
    // A length that survives rounding but wraps past the bump pointer.
    mem.allocate(64);
    EXPECT_THROW(mem.allocate(0xffffffffffffff00ull),
                 std::runtime_error);
    // A failed allocation must not have moved the allocator.
    const Addr a = mem.allocate(64);
    const Addr b = mem.allocate(64);
    EXPECT_EQ(b, a + 64);
}

/** Trivially-correct reference: a flat byte map. */
class ByteMapMemory
{
  public:
    std::uint64_t
    read(Addr addr, unsigned nbytes) const
    {
        std::uint64_t value = 0;
        for (unsigned i = 0; i < nbytes; ++i) {
            const auto it = bytes_.find(addr + i);
            const std::uint8_t byte =
                it == bytes_.end() ? 0 : it->second;
            value |= static_cast<std::uint64_t>(byte) << (8 * i);
        }
        return value;
    }

    void
    write(Addr addr, std::uint64_t value, unsigned nbytes)
    {
        for (unsigned i = 0; i < nbytes; ++i)
            bytes_[addr + i] =
                static_cast<std::uint8_t>(value >> (8 * i));
    }

  private:
    std::map<Addr, std::uint8_t> bytes_;
};

TEST(SimMemory, RandomizedEquivalenceWithReferenceModel)
{
    // Identical random access streams through SimMemory and the
    // byte-map reference must observe identical values — including
    // cross-page accesses, bulk load/store, and reads of never-written
    // memory.
    SimMemory fast;
    ByteMapMemory ref;

    Rng rng(2024);
    // Clustered addresses so the stream revisits pages (TLB hits) but
    // also aliases translation-cache slots (64-entry direct-mapped).
    const auto randomAddr = [&] {
        const Addr page = rng.below(512) * SimMemory::pageSize;
        return 0x10000 + page + rng.below(SimMemory::pageSize);
    };

    for (int op = 0; op < 20000; ++op) {
        const Addr addr = randomAddr();
        const auto nbytes = static_cast<unsigned>(1 + rng.below(8));
        switch (rng.below(4)) {
          case 0: {
            const std::uint64_t value = rng.next();
            fast.write(addr, value, nbytes);
            ref.write(addr, value, nbytes);
            break;
          }
          case 1: {
            const std::uint64_t expect = ref.read(addr, nbytes);
            ASSERT_EQ(fast.read(addr, nbytes), expect);
            break;
          }
          case 2: { // bulk load spanning up to two pages
            std::uint8_t buf[96];
            for (auto &b : buf)
                b = static_cast<std::uint8_t>(rng.below(256));
            fast.load(addr, buf, sizeof(buf));
            for (unsigned i = 0; i < sizeof(buf); ++i)
                ref.write(addr + i, buf[i], 1);
            break;
          }
          default: { // bulk store
            std::uint8_t a[96];
            fast.store(addr, a, sizeof(a));
            for (unsigned i = 0; i < sizeof(a); ++i) {
                const auto expect = static_cast<std::uint8_t>(
                    ref.read(addr + i, 1));
                ASSERT_EQ(a[i], expect) << "store byte " << i;
            }
            break;
          }
        }
    }
}

TEST(SimMemory, CloneDivergesLikeDeepCopy)
{
    SimMemory parent;
    for (Addr a = 0x10000; a < 0x10000 + 4 * SimMemory::pageSize;
         a += 8)
        parent.write64(a, a * 3);

    SimMemory child = parent.clone();
    SimMemory grandchild = child.clone();

    // Writes on any generation must be invisible to the others.
    parent.write64(0x10000, 111);
    child.write64(0x10000, 222);
    grandchild.write64(0x10008, 333);

    EXPECT_EQ(parent.read64(0x10000), 111u);
    EXPECT_EQ(child.read64(0x10000), 222u);
    EXPECT_EQ(grandchild.read64(0x10000), 0x10000ull * 3);
    EXPECT_EQ(parent.read64(0x10008), 0x10008ull * 3);
    EXPECT_EQ(child.read64(0x10008), 0x10008ull * 3);
    EXPECT_EQ(grandchild.read64(0x10008), 333u);

    // Untouched shared pages still read through identically.
    const Addr far = 0x10000 + 3 * SimMemory::pageSize;
    EXPECT_EQ(child.read64(far), far * 3);
    EXPECT_EQ(grandchild.read64(far), far * 3);

    // The clone also inherits the allocator cursor.
    EXPECT_EQ(parent.allocate(8), child.allocate(8));
}

TEST(SimMemory, CowFaultsCountCopiedPages)
{
    SimMemory parent;
    for (unsigned p = 0; p < 4; ++p)
        parent.write64(0x10000 + p * SimMemory::pageSize, p);

    SimMemory child = parent.clone();
    EXPECT_EQ(child.cowFaults(), 0u);

    child.write64(0x10000, 7); // first write to a shared page: copy
    EXPECT_EQ(child.cowFaults(), 1u);
    child.write64(0x10008, 8); // same page, now private: no copy
    EXPECT_EQ(child.cowFaults(), 1u);
    child.write64(0x10000 + SimMemory::pageSize, 9);
    EXPECT_EQ(child.cowFaults(), 2u);

    // The child's copies released the parent's pages: the parent owns
    // pages 0 and 1 exclusively again and writes without faulting.
    parent.write64(0x10000, 10);
    EXPECT_EQ(parent.cowFaults(), 0u);
}

TEST(SimMemory, WritesAfterCloneDoNotLeakThroughStaleTranslations)
{
    // Regression guard for the translation cache x CoW interaction: a
    // cached *write* translation from before clone() must not be used
    // afterwards, or the write would corrupt the now-shared page.
    SimMemory parent;
    parent.write64(0x10000, 1); // caches a writable translation
    SimMemory child = parent.clone();
    parent.write64(0x10000, 2); // must fault a private copy
    EXPECT_EQ(child.read64(0x10000), 1u);
    EXPECT_EQ(parent.read64(0x10000), 2u);

    // And the same in the other direction, repeatedly.
    for (int i = 0; i < 4; ++i) {
        SimMemory c = parent.clone();
        c.write64(0x10000, 100 + i);
        parent.write64(0x10000, 200 + i);
        EXPECT_EQ(c.read64(0x10000), 100u + i);
        EXPECT_EQ(parent.read64(0x10000), 200u + i);
    }
}

// --------------------------------------------------------------- cache

CacheConfig
smallCache()
{
    return {.name = "test", .sizeBytes = 1024, .assoc = 2,
            .lineSize = 64, .hitLatency = 1};
}

TEST(Cache, MissThenHit)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1010, false).hit); // same line
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, LruEviction)
{
    // 2-way set: fill both ways, touch the first, insert a third ->
    // the second (least recently used) is evicted.
    Cache cache(smallCache());
    const unsigned setStride = 64 * cache.numSets();
    cache.access(0 * setStride, false);
    cache.access(1 * setStride, false);
    cache.access(0 * setStride, false); // refresh way 0
    cache.access(2 * setStride, false); // evicts address setStride
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(setStride));
    EXPECT_TRUE(cache.contains(2 * setStride));
}

TEST(Cache, DirtyVictimWritesBack)
{
    Cache cache(smallCache());
    const unsigned setStride = 64 * cache.numSets();
    cache.access(0, true); // dirty
    cache.access(setStride, false);
    const CacheAccessResult r = cache.access(2 * setStride, false);
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.writebackAddr, 0u);
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(Cache, CleanVictimSilent)
{
    Cache cache(smallCache());
    const unsigned setStride = 64 * cache.numSets();
    cache.access(0, false);
    cache.access(setStride, false);
    EXPECT_FALSE(cache.access(2 * setStride, false).writeback);
}

TEST(Cache, WriteHitMarksDirty)
{
    Cache cache(smallCache());
    const unsigned setStride = 64 * cache.numSets();
    cache.access(0, false);
    cache.access(0, true); // hit, now dirty
    cache.access(setStride, false);
    EXPECT_TRUE(cache.access(2 * setStride, false).writeback);
}

TEST(Cache, ReserveWaysShrinksCapacity)
{
    Cache cache({.name = "l2", .sizeBytes = 16 * 1024, .assoc = 16,
                 .lineSize = 64, .hitLatency = 13});
    EXPECT_EQ(cache.usableBytes(), 16u * 1024);
    cache.reserveWays(8);
    EXPECT_EQ(cache.usableWays(), 8u);
    EXPECT_EQ(cache.usableBytes(), 8u * 1024);

    // Thrash check: 9 distinct lines in one set now exceed capacity.
    const unsigned setStride = 64 * cache.numSets();
    for (unsigned i = 0; i < 9; ++i)
        cache.access(i * setStride, false);
    EXPECT_FALSE(cache.contains(0)); // the oldest got evicted
}

TEST(Cache, ReserveAllWaysFatal)
{
    Cache cache(smallCache());
    EXPECT_THROW(cache.reserveWays(2), std::runtime_error);
}

TEST(Cache, InvalidateAll)
{
    Cache cache(smallCache());
    cache.access(0, true);
    cache.invalidateAll();
    EXPECT_FALSE(cache.contains(0));
    EXPECT_FALSE(cache.access(0, false).writeback);
}

TEST(Cache, BadGeometryFatal)
{
    EXPECT_THROW(Cache({.name = "bad", .sizeBytes = 1000, .assoc = 2,
                        .lineSize = 64, .hitLatency = 1}),
                 std::runtime_error);
    EXPECT_THROW(Cache({.name = "bad", .sizeBytes = 1024, .assoc = 0,
                        .lineSize = 64, .hitLatency = 1}),
                 std::runtime_error);
}

/** Property sweep: hits+misses add up and hit rate rises with size. */
class CacheSweepTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CacheSweepTest, StreamingWorkingSet)
{
    Cache cache({.name = "sweep", .sizeBytes = GetParam(), .assoc = 4,
                 .lineSize = 64, .hitLatency = 1});
    // Two passes over a 8 KB working set.
    for (int pass = 0; pass < 2; ++pass) {
        for (Addr a = 0; a < 8 * 1024; a += 64)
            cache.access(a, false);
    }
    EXPECT_EQ(cache.hits() + cache.misses(), 2u * 128);
    if (GetParam() >= 8 * 1024) {
        // Second pass fully hits.
        EXPECT_EQ(cache.hits(), 128u);
    } else {
        // Working set exceeds capacity: LRU streaming gets no hits.
        EXPECT_EQ(cache.hits(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheSweepTest,
                         ::testing::Values(1024u, 2048u, 4096u, 8192u,
                                           16384u, 32768u));

// ------------------------------------------------------- MRU way hints

TEST(Cache, MruHintSequencesIdentical)
{
    // The MRU way hint is a pure host-side accelerator: with and without
    // it, a random access stream must produce the exact same hit/miss,
    // writeback and victim-address sequence, through way partitioning
    // and invalidation.
    const CacheConfig config{.name = "equiv", .sizeBytes = 4 * 1024,
                             .assoc = 4, .lineSize = 64,
                             .hitLatency = 1};
    Cache hinted(config);
    Cache scanned(config);
    scanned.setMruHintEnabled(false);

    Rng rng(31);
    Addr last = 0;
    const auto randomAddr = [&] {
        // Bursty: revisit a recent line half the time so the hint is
        // actually exercised, roam an 8 KB span otherwise.
        if (rng.below(2) == 0)
            return last;
        last = rng.below(8 * 1024) & ~63ull;
        return last;
    };

    for (int phase = 0; phase < 3; ++phase) {
        for (int op = 0; op < 5000; ++op) {
            const Addr addr = randomAddr();
            const bool isWrite = rng.below(4) == 0;
            const CacheAccessResult a = hinted.access(addr, isWrite);
            const CacheAccessResult b = scanned.access(addr, isWrite);
            ASSERT_EQ(a.hit, b.hit) << "op " << op;
            ASSERT_EQ(a.writeback, b.writeback) << "op " << op;
            ASSERT_EQ(a.writebackAddr, b.writebackAddr) << "op " << op;
            ASSERT_EQ(hinted.contains(addr), scanned.contains(addr));
        }
        // Phase boundaries stress the hint across structural changes.
        if (phase == 0) {
            hinted.reserveWays(2);
            scanned.reserveWays(2);
        } else if (phase == 1) {
            hinted.invalidateAll();
            scanned.invalidateAll();
        }
    }
    EXPECT_EQ(hinted.hits(), scanned.hits());
    EXPECT_EQ(hinted.misses(), scanned.misses());
    EXPECT_EQ(hinted.writebacks(), scanned.writebacks());
}

TEST(Cache, MruScanProbeSequencesIdentical)
{
    // Same equivalence at an associativity above kMruScanMinAssoc,
    // where access() really does probe the hint before scanning (below
    // the gate both caches run the identical plain scan). A third cache
    // driven through the inline tryMruHit()+access() fast path must
    // also track the others exactly.
    static_assert(Cache::kMruScanMinAssoc <= 16);
    const CacheConfig config{.name = "equiv16", .sizeBytes = 16 * 1024,
                             .assoc = 16, .lineSize = 64,
                             .hitLatency = 1};
    Cache hinted(config);
    Cache scanned(config);
    Cache fastpath(config);
    scanned.setMruHintEnabled(false);

    Rng rng(33);
    Addr last = 0;
    const auto randomAddr = [&] {
        if (rng.below(2) == 0)
            return last;
        last = rng.below(32 * 1024) & ~63ull;
        return last;
    };

    for (int phase = 0; phase < 3; ++phase) {
        for (int op = 0; op < 5000; ++op) {
            const Addr addr = randomAddr();
            const bool isWrite = rng.below(4) == 0;
            const CacheAccessResult a = hinted.access(addr, isWrite);
            const CacheAccessResult b = scanned.access(addr, isWrite);
            CacheAccessResult c{.hit = true};
            if (!fastpath.tryMruHit(addr, isWrite))
                c = fastpath.access(addr, isWrite);
            ASSERT_EQ(a.hit, b.hit) << "op " << op;
            ASSERT_EQ(a.writeback, b.writeback) << "op " << op;
            ASSERT_EQ(a.writebackAddr, b.writebackAddr) << "op " << op;
            ASSERT_EQ(a.hit, c.hit) << "op " << op;
            ASSERT_EQ(a.writeback, c.writeback) << "op " << op;
            ASSERT_EQ(a.writebackAddr, c.writebackAddr) << "op " << op;
        }
        if (phase == 0) {
            hinted.reserveWays(4);
            scanned.reserveWays(4);
            fastpath.reserveWays(4);
        } else if (phase == 1) {
            hinted.invalidateAll();
            scanned.invalidateAll();
            fastpath.invalidateAll();
        }
    }
    EXPECT_EQ(hinted.hits(), scanned.hits());
    EXPECT_EQ(hinted.misses(), scanned.misses());
    EXPECT_EQ(hinted.writebacks(), scanned.writebacks());
    EXPECT_EQ(hinted.hits(), fastpath.hits());
    EXPECT_EQ(hinted.misses(), fastpath.misses());
    EXPECT_EQ(hinted.writebacks(), fastpath.writebacks());
}

/** Plain-scan reference of LookupTable: the same set index, true-LRU
 * stamps and victim choice (first invalid way, else the oldest), and no
 * way hint. */
class ScanLut
{
  public:
    explicit ScanLut(const LookupTable &shape)
        : sets_(shape.numSets()), ways_(shape.ways()),
          entries_(static_cast<std::size_t>(sets_) * ways_)
    {
    }

    std::optional<std::uint64_t>
    lookup(LutId lutId, std::uint64_t hash)
    {
        if (Entry *e = find(lutId, hash)) {
            e->stamp = ++stamp_;
            ++hits_;
            return e->data;
        }
        ++misses_;
        return std::nullopt;
    }

    std::optional<LookupTable::Victim>
    insert(LutId lutId, std::uint64_t hash, std::uint64_t data)
    {
        if (Entry *e = find(lutId, hash)) {
            e->data = data;
            e->stamp = ++stamp_;
            return std::nullopt;
        }
        Entry *set = setOf(hash);
        Entry *e = set;
        for (unsigned w = 0; w < ways_; ++w) {
            if (!set[w].valid) {
                e = &set[w];
                break;
            }
            if (set[w].stamp < e->stamp)
                e = &set[w];
        }
        std::optional<LookupTable::Victim> victim;
        if (e->valid)
            victim = LookupTable::Victim{e->lutId, e->hash, e->data};
        *e = {true, lutId, hash, data, ++stamp_};
        return victim;
    }

    void
    erase(LutId lutId, std::uint64_t hash)
    {
        if (Entry *e = find(lutId, hash))
            e->valid = false;
    }

    void
    invalidateLut(LutId lutId)
    {
        for (Entry &e : entries_)
            if (e.lutId == lutId)
                e.valid = false;
    }

    std::uint64_t
    validCount() const
    {
        std::uint64_t n = 0;
        for (const Entry &e : entries_)
            n += e.valid ? 1 : 0;
        return n;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Entry
    {
        bool valid = false;
        LutId lutId = 0;
        std::uint64_t hash = 0;
        std::uint64_t data = 0;
        std::uint64_t stamp = 0;
    };

    Entry *
    setOf(std::uint64_t hash)
    {
        return &entries_[(hash & (sets_ - 1)) * ways_];
    }

    Entry *
    find(LutId lutId, std::uint64_t hash)
    {
        Entry *set = setOf(hash);
        for (unsigned w = 0; w < ways_; ++w)
            if (set[w].valid && set[w].lutId == lutId &&
                set[w].hash == hash)
                return &set[w];
        return nullptr;
    }

    std::uint64_t sets_;
    unsigned ways_;
    std::vector<Entry> entries_;
    std::uint64_t stamp_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

TEST(Lut, MruHintSequencesIdentical)
{
    // Same property for the memoization LUT, whose hint is always on:
    // against the plain-scan reference, identical lookup results,
    // identical insert victims, identical counters.
    const LutConfig config{.name = "equiv", .sizeBytes = 1024,
                           .dataBytes = 4};
    LookupTable hinted(config);
    ScanLut scanned(hinted);

    Rng rng(47);
    std::vector<std::uint64_t> keys(64);
    for (auto &k : keys)
        k = rng.next();

    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t hash = keys[rng.below(keys.size())];
        const auto lutId = static_cast<LutId>(rng.below(2));
        switch (rng.below(4)) {
          case 0: {
            const std::uint64_t data = rng.next() & 0xffffffffull;
            const auto a = hinted.insert(lutId, hash, data);
            const auto b = scanned.insert(lutId, hash, data);
            ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
            if (a) {
                ASSERT_EQ(a->lutId, b->lutId);
                ASSERT_EQ(a->hash, b->hash);
                ASSERT_EQ(a->data, b->data);
            }
            break;
          }
          case 1:
            hinted.erase(lutId, hash);
            scanned.erase(lutId, hash);
            break;
          case 2:
            if (rng.below(64) == 0) {
                hinted.invalidateLut(lutId);
                scanned.invalidateLut(lutId);
                break;
            }
            [[fallthrough]];
          default:
            ASSERT_EQ(hinted.lookup(lutId, hash),
                      scanned.lookup(lutId, hash))
                << "op " << op;
            break;
        }
        ASSERT_EQ(hinted.validCount(), scanned.validCount());
    }
    EXPECT_EQ(hinted.hits(), scanned.hits());
    EXPECT_EQ(hinted.misses(), scanned.misses());
}

// ---------------------------------------------------------------- dram

TEST(Dram, RowHitFasterThanMiss)
{
    Dram dram;
    const Cycle first = dram.access(0);
    const Cycle second = dram.access(64);
    EXPECT_GT(first, second); // same row: open-row hit
    EXPECT_EQ(dram.rowMisses(), 1u);
    EXPECT_EQ(dram.rowHits(), 1u);
}

TEST(Dram, DifferentRowsMiss)
{
    Dram dram;
    const DramConfig &config = dram.config();
    dram.access(0);
    const std::uint64_t banks =
        static_cast<std::uint64_t>(config.channels) *
        config.banksPerChannel;
    dram.access(config.rowBytes * banks); // same bank, different row
    EXPECT_EQ(dram.rowMisses(), 2u);
}

// ----------------------------------------------------------- hierarchy

TEST(Hierarchy, LatencyLevels)
{
    MemHierarchy hier;
    const Cycle cold = hier.access(0x10000, false);
    const Cycle l1Hit = hier.access(0x10000, false);
    EXPECT_EQ(l1Hit, hier.config().l1d.hitLatency);
    EXPECT_GT(cold, hier.config().l1d.hitLatency +
                        hier.config().l2.hitLatency);
    EXPECT_EQ(hier.events().get("l1d_miss"), 1u);
    EXPECT_EQ(hier.events().get("l1d_hit"), 1u);
    EXPECT_EQ(hier.events().get("dram_read"), 1u);
}

TEST(Hierarchy, L2HitLatency)
{
    MemHierarchy hier;
    hier.access(0x20000, false); // cold fill into L1+L2
    // Evict from tiny.. L1 is 32 KB 4-way: touch 5 conflicting lines.
    const std::uint64_t l1SetStride =
        hier.l1d().numSets() * hier.config().l1d.lineSize;
    for (int i = 1; i <= 4; ++i)
        hier.access(0x20000 + i * l1SetStride, false);
    const Cycle l2Hit = hier.access(0x20000, false);
    EXPECT_EQ(l2Hit, hier.config().l1d.hitLatency +
                         hier.config().l2.hitLatency);
}

TEST(Hierarchy, ReserveL2WaysReducesCapacity)
{
    MemHierarchy hier;
    const std::uint64_t before = hier.l2UsableBytes();
    hier.reserveL2Ways(8);
    EXPECT_EQ(hier.l2UsableBytes(), before / 2);
}

TEST(Hierarchy, WritebackPath)
{
    MemHierarchy hier;
    // Dirty a line, then stream enough conflicting lines through the
    // set to force the dirty victim down to L2.
    hier.access(0x40000, true);
    const std::uint64_t l1SetStride =
        hier.l1d().numSets() * hier.config().l1d.lineSize;
    for (int i = 1; i <= 4; ++i)
        hier.access(0x40000 + i * l1SetStride, false);
    EXPECT_GE(hier.events().get("l2_wb_access"), 1u);
}

} // namespace
} // namespace axmemo
