/**
 * @file
 * Sparse, paged, flat simulated memory.
 *
 * Workload data (images, option arrays, software LUT arrays, ...) lives in
 * this address space and is accessed by AxIR load/store instructions. Pages
 * are allocated lazily so the 1 GB software-LUT array of Section 6.2 costs
 * only the pages it actually touches. A bump allocator hands out
 * non-overlapping regions to workloads.
 *
 * Two host-side fast paths keep this off the simulator's critical path
 * (DESIGN.md §7):
 *
 *  - A small direct-mapped page-translation cache in front of the page
 *    map turns the common-case access into one compare instead of an
 *    unordered_map probe, and every access translates once instead of
 *    once per byte.
 *  - Pages are copy-on-write: clone() shares pages via shared_ptr and a
 *    write to a shared page copies it first. The sweep engine's per-job
 *    clones of a prepared dataset are O(pages) pointer copies, and only
 *    pages a run actually dirties are ever duplicated.
 *
 * Both are invisible to the simulated program: reads observe exactly the
 * bytes written, clones diverge exactly as deep copies would.
 */

#ifndef AXMEMO_MEMSYS_SIM_MEMORY_HH
#define AXMEMO_MEMSYS_SIM_MEMORY_HH

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/bits.hh"
#include "common/types.hh"

namespace axmemo {

/** Lazily-paged simulated byte-addressable memory. */
class SimMemory
{
  public:
    static constexpr unsigned pageShift = 12;
    static constexpr std::size_t pageSize = 1ull << pageShift;
    /** Translation-cache entries (direct-mapped, power of two). */
    static constexpr std::size_t xlatEntries = 64;

    SimMemory() = default;
    /** Deep identity is per-object: accidental copies would alias the
     * translation cache, so copying goes through clone() explicitly. */
    SimMemory(const SimMemory &) = delete;
    SimMemory &operator=(const SimMemory &) = delete;
    SimMemory(SimMemory &&other) noexcept;
    SimMemory &operator=(SimMemory &&other) noexcept;

    /**
     * Read @p nbytes (1..8) little-endian starting at @p addr.
     *
     * The in-page translation-cache hit stays inline (the interpreter
     * issues one of these per simulated load); everything else —
     * unmapped pages, cache fills, straddles, bad sizes — drops to the
     * out-of-line slow path with identical semantics.
     */
    std::uint64_t
    read(Addr addr, unsigned nbytes) const
    {
        const std::size_t offset = addr & (pageSize - 1);
        if (nbytes - 1 < 8u && offset + nbytes <= pageSize) {
            const std::uint64_t pageNum = addr >> pageShift;
            const XlatEntry &entry = slotFor(pageNum);
            if (entry.pageNum == pageNum)
                return loadLe(entry.data + offset, nbytes);
        }
        return readSlow(addr, nbytes);
    }

    /** Write the low @p nbytes (1..8) of @p value at @p addr (LE).
     * Inline on a writable translation-cache hit; see read(). */
    void
    write(Addr addr, std::uint64_t value, unsigned nbytes)
    {
        const std::size_t offset = addr & (pageSize - 1);
        if (nbytes - 1 < 8u && offset + nbytes <= pageSize) {
            const std::uint64_t pageNum = addr >> pageShift;
            const XlatEntry &entry = slotFor(pageNum);
            if (entry.pageNum == pageNum && entry.writable &&
                entry.writeEpoch ==
                    cowEpoch_.load(std::memory_order_relaxed)) {
                storeLe(entry.data + offset, value, nbytes);
                return;
            }
        }
        writeSlow(addr, value, nbytes);
    }

    /** Typed helpers. */
    std::uint8_t read8(Addr a) const
    {
        return static_cast<std::uint8_t>(read(a, 1));
    }
    std::uint32_t read32(Addr a) const
    {
        return static_cast<std::uint32_t>(read(a, 4));
    }
    std::uint64_t read64(Addr a) const { return read(a, 8); }
    float readFloat(Addr a) const { return bitsToFloat(read32(a)); }
    double readDouble(Addr a) const { return bitsToDouble(read64(a)); }

    void write8(Addr a, std::uint8_t v) { write(a, v, 1); }
    void write32(Addr a, std::uint32_t v) { write(a, v, 4); }
    void write64(Addr a, std::uint64_t v) { write(a, v, 8); }
    void writeFloat(Addr a, float v) { write32(a, floatBits(v)); }
    void writeDouble(Addr a, double v) { write64(a, doubleBits(v)); }

    /** Copy a host buffer into simulated memory. */
    void load(Addr addr, const void *src, std::size_t len);

    /** Copy simulated memory out to a host buffer. */
    void store(Addr addr, void *dst, std::size_t len) const;

    /** Read a vector of 32-bit floats starting at @p addr. */
    std::vector<float> readFloats(Addr addr, std::size_t count) const;

    /** Write a vector of 32-bit floats starting at @p addr. */
    void writeFloats(Addr addr, const std::vector<float> &values);

    /**
     * Reserve @p len bytes and return the base address. Allocations are
     * 64-byte aligned so regions never share a cache line. Fails loudly
     * if the bump allocator would wrap the address space (overlapping
     * regions would silently corrupt workload data).
     */
    Addr allocate(std::size_t len);

    /** Number of physical pages materialized so far. */
    std::size_t pageCount() const { return pages_.size(); }

    /**
     * Logical deep copy: identical contents and allocator state that
     * diverge independently from this point on. Physically the pages are
     * shared copy-on-write, so cloning costs O(pages) pointer copies and
     * only written pages are ever duplicated. Safe to call concurrently
     * on the same source (the sweep engine clones a prepared image from
     * many workers).
     */
    SimMemory clone() const;

    /** Drop all contents and reset the allocator. */
    void clear();

    /** Pages physically copied by write faults since construction. */
    std::uint64_t cowFaults() const { return cowFaults_; }

  private:
    using Page = std::array<std::uint8_t, pageSize>;
    using PageRef = std::shared_ptr<Page>;

    struct XlatEntry
    {
        std::uint64_t pageNum = ~0ull;
        std::uint8_t *data = nullptr;
        /** Entry may serve writes iff writeEpoch == cowEpoch_. */
        bool writable = false;
        std::uint64_t writeEpoch = 0;
    };

    XlatEntry &slotFor(std::uint64_t pageNum) const
    {
        return xlat_[pageNum & (xlatEntries - 1)];
    }

    /** Little-endian scatter/gather of an in-page value; the common
     * full-word widths are single loads/stores on LE hosts. */
    static std::uint64_t
    loadLe(const std::uint8_t *p, unsigned nbytes)
    {
        if constexpr (std::endian::native == std::endian::little) {
            if (nbytes == 8) {
                std::uint64_t value;
                std::memcpy(&value, p, 8);
                return value;
            }
            if (nbytes == 4) {
                std::uint32_t value;
                std::memcpy(&value, p, 4);
                return value;
            }
        }
        std::uint64_t value = 0;
        for (unsigned i = 0; i < nbytes; ++i)
            value |= static_cast<std::uint64_t>(p[i]) << (8 * i);
        return value;
    }

    static void
    storeLe(std::uint8_t *p, std::uint64_t value, unsigned nbytes)
    {
        if constexpr (std::endian::native == std::endian::little) {
            if (nbytes == 8) {
                std::memcpy(p, &value, 8);
                return;
            }
            if (nbytes == 4) {
                const auto v32 = static_cast<std::uint32_t>(value);
                std::memcpy(p, &v32, 4);
                return;
            }
        }
        for (unsigned i = 0; i < nbytes; ++i)
            p[i] = static_cast<std::uint8_t>(value >> (8 * i));
    }

    /** Out-of-line remainders of read()/write(). */
    std::uint64_t readSlow(Addr addr, unsigned nbytes) const;
    void writeSlow(Addr addr, std::uint64_t value, unsigned nbytes);

    /** @return the page holding @p pageNum, or nullptr if unmapped. */
    const std::uint8_t *readPage(std::uint64_t pageNum) const;

    /** @return an exclusively-owned page for @p pageNum, creating or
     * copy-on-write-faulting as needed. */
    std::uint8_t *writePage(std::uint64_t pageNum);

    void flushXlat() const;

    mutable std::unordered_map<std::uint64_t, PageRef> pages_;
    mutable std::array<XlatEntry, xlatEntries> xlat_{};
    /** Bumped by clone(): invalidates every cached write translation of
     * the source, whose pages just became shared. Atomic so concurrent
     * clones of one prepared image never race. */
    mutable std::atomic<std::uint64_t> cowEpoch_{0};
    Addr allocNext_ = 0x10000; // keep address 0 unmapped to catch bugs
    std::uint64_t cowFaults_ = 0;
};

} // namespace axmemo

#endif // AXMEMO_MEMSYS_SIM_MEMORY_HH
