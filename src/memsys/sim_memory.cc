#include "memsys/sim_memory.hh"

#include "common/log.hh"

namespace axmemo {

SimMemory::SimMemory(SimMemory &&other) noexcept
    : pages_(std::move(other.pages_)), xlat_(other.xlat_),
      cowEpoch_(other.cowEpoch_.load(std::memory_order_relaxed)),
      allocNext_(other.allocNext_), cowFaults_(other.cowFaults_)
{
    // The moved-from map is empty; its cached translations would point
    // at pages it no longer tracks.
    other.flushXlat();
}

SimMemory &
SimMemory::operator=(SimMemory &&other) noexcept
{
    if (this == &other)
        return *this;
    pages_ = std::move(other.pages_);
    xlat_ = other.xlat_;
    cowEpoch_.store(other.cowEpoch_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    allocNext_ = other.allocNext_;
    cowFaults_ = other.cowFaults_;
    other.flushXlat();
    return *this;
}

void
SimMemory::flushXlat() const
{
    for (XlatEntry &entry : xlat_)
        entry = XlatEntry{};
}

const std::uint8_t *
SimMemory::readPage(std::uint64_t pageNum) const
{
    const XlatEntry &entry = slotFor(pageNum);
    if (entry.pageNum == pageNum)
        return entry.data;
    const auto it = pages_.find(pageNum);
    if (it == pages_.end())
        return nullptr; // unmapped reads are not cached: a later write
                        // materializes the page behind our back
    std::uint8_t *data = it->second->data();
    slotFor(pageNum) = {pageNum, data, /*writable=*/false, 0};
    return data;
}

std::uint8_t *
SimMemory::writePage(std::uint64_t pageNum)
{
    const XlatEntry &entry = slotFor(pageNum);
    if (entry.pageNum == pageNum && entry.writable &&
        entry.writeEpoch == cowEpoch_.load(std::memory_order_relaxed))
        return entry.data;
    auto [it, inserted] = pages_.try_emplace(pageNum);
    if (inserted) {
        it->second = std::make_shared<Page>();
        it->second->fill(0);
    } else if (it->second.use_count() > 1) {
        // Write fault: the page is shared with a clone; copy before the
        // first byte diverges.
        it->second = std::make_shared<Page>(*it->second);
        ++cowFaults_;
    }
    std::uint8_t *data = it->second->data();
    slotFor(pageNum) = {pageNum, data, /*writable=*/true,
                        cowEpoch_.load(std::memory_order_relaxed)};
    return data;
}

std::uint64_t
SimMemory::readSlow(Addr addr, unsigned nbytes) const
{
    if (nbytes == 0 || nbytes > 8)
        axm_panic("SimMemory::read of ", nbytes, " bytes");
    const std::size_t offset = addr & (pageSize - 1);
    if (offset + nbytes <= pageSize) {
        const std::uint8_t *page = readPage(addr >> pageShift);
        if (!page)
            return 0;
        return loadLe(page + offset, nbytes);
    }
    // Straddles a page boundary: translate per byte.
    std::uint64_t value = 0;
    for (unsigned i = 0; i < nbytes; ++i) {
        const Addr a = addr + i;
        const std::uint8_t *page = readPage(a >> pageShift);
        const std::uint8_t byte = page ? page[a & (pageSize - 1)] : 0;
        value |= static_cast<std::uint64_t>(byte) << (8 * i);
    }
    return value;
}

void
SimMemory::writeSlow(Addr addr, std::uint64_t value, unsigned nbytes)
{
    if (nbytes == 0 || nbytes > 8)
        axm_panic("SimMemory::write of ", nbytes, " bytes");
    const std::size_t offset = addr & (pageSize - 1);
    if (offset + nbytes <= pageSize) {
        std::uint8_t *page = writePage(addr >> pageShift);
        storeLe(page + offset, value, nbytes);
        return;
    }
    for (unsigned i = 0; i < nbytes; ++i) {
        const Addr a = addr + i;
        std::uint8_t *page = writePage(a >> pageShift);
        page[a & (pageSize - 1)] =
            static_cast<std::uint8_t>(value >> (8 * i));
    }
}

void
SimMemory::load(Addr addr, const void *src, std::size_t len)
{
    const auto *bytes = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        const std::size_t offset = addr & (pageSize - 1);
        const std::size_t chunk = std::min(len, pageSize - offset);
        std::uint8_t *page = writePage(addr >> pageShift);
        std::memcpy(page + offset, bytes, chunk);
        addr += chunk;
        bytes += chunk;
        len -= chunk;
    }
}

void
SimMemory::store(Addr addr, void *dst, std::size_t len) const
{
    auto *bytes = static_cast<std::uint8_t *>(dst);
    while (len > 0) {
        const std::size_t offset = addr & (pageSize - 1);
        const std::size_t chunk = std::min(len, pageSize - offset);
        const std::uint8_t *page = readPage(addr >> pageShift);
        if (page)
            std::memcpy(bytes, page + offset, chunk);
        else
            std::memset(bytes, 0, chunk);
        addr += chunk;
        bytes += chunk;
        len -= chunk;
    }
}

std::vector<float>
SimMemory::readFloats(Addr addr, std::size_t count) const
{
    std::vector<float> out(count);
    for (std::size_t i = 0; i < count; ++i)
        out[i] = readFloat(addr + 4 * i);
    return out;
}

void
SimMemory::writeFloats(Addr addr, const std::vector<float> &values)
{
    for (std::size_t i = 0; i < values.size(); ++i)
        writeFloat(addr + 4 * i, values[i]);
}

Addr
SimMemory::allocate(std::size_t len)
{
    const Addr base = allocNext_;
    const std::size_t rounded =
        (len + 63) & ~static_cast<std::size_t>(63);
    if (rounded < len || base + rounded < base)
        axm_fatal("SimMemory::allocate(", len,
                  ") wraps the address space (allocator at ", base,
                  "); regions would overlap");
    allocNext_ = base + rounded;
    return base;
}

SimMemory
SimMemory::clone() const
{
    // Every page becomes shared: invalidate this object's cached write
    // translations so its next write to each page faults a private copy.
    cowEpoch_.fetch_add(1, std::memory_order_relaxed);
    SimMemory copy;
    copy.allocNext_ = allocNext_;
    copy.pages_ = pages_; // shared_ptr copies: O(pages), no byte copies
    return copy;
}

void
SimMemory::clear()
{
    pages_.clear();
    flushXlat();
    allocNext_ = 0x10000;
}

} // namespace axmemo
