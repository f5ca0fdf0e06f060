#include "memo/lut.hh"

#include "common/bits.hh"
#include "common/expected.hh"
#include "common/log.hh"
#include "obs/trace.hh"

namespace axmemo {

LookupTable::LookupTable(const LutConfig &config)
    : ways_(config.ways())
{
    // Configuration errors are recoverable at the sweep boundary:
    // raiseError's AxException marks the one offending job Failed
    // instead of tearing down the whole run.
    if (config.dataBytes != 4 && config.dataBytes != 8)
        raiseError(ErrorCode::Config, "lut",
                   config.name + ": LUT data must be 4 or 8 bytes");
    if (config.sizeBytes == 0 ||
        config.sizeBytes % LutConfig::setBytes != 0)
        raiseError(ErrorCode::Config, "lut",
                   config.name + ": LUT size must be a multiple of " +
                       std::to_string(LutConfig::setBytes) + " bytes");
    const std::uint64_t sets = config.sizeBytes / LutConfig::setBytes;
    if (!isPowerOfTwo(sets))
        raiseError(ErrorCode::Config, "lut",
                   config.name +
                       ": LUT set count must be a power of two");
    numSets_ = static_cast<unsigned>(sets);
    entries_.resize(static_cast<std::size_t>(numSets_) * ways_);
    mruWay_.assign(numSets_, 0);
}

std::optional<std::uint64_t>
LookupTable::lookup(LutId lutId, std::uint64_t hash)
{
    const unsigned set = setOf(hash);

    // MRU fast path: keys are unique within a set, so checking the
    // hinted way first can never disagree with the scan below.
    Entry *hinted = entryAt(set, mruWay_[set]);
    if (hinted->valid && hinted->lutId == lutId && hinted->hash == hash) {
        hinted->lruStamp = ++stamp_;
        ++hits_;
        return hinted->data;
    }

    for (unsigned w = 0; w < ways_; ++w) {
        Entry *e = entryAt(set, w);
        if (e->valid && e->lutId == lutId && e->hash == hash) {
            e->lruStamp = ++stamp_;
            ++hits_;
            mruWay_[set] = static_cast<std::uint8_t>(w);
            return e->data;
        }
    }
    ++misses_;
    return std::nullopt;
}

bool
LookupTable::contains(LutId lutId, std::uint64_t hash) const
{
    const unsigned set = setOf(hash);
    for (unsigned w = 0; w < ways_; ++w) {
        const Entry *e = entryAt(set, w);
        if (e->valid && e->lutId == lutId && e->hash == hash)
            return true;
    }
    return false;
}

std::optional<LookupTable::Victim>
LookupTable::insert(LutId lutId, std::uint64_t hash, std::uint64_t data)
{
    const unsigned set = setOf(hash);

    // Overwrite an existing entry for the same key (a collision of
    // truncated inputs mapping to the same hash simply refreshes data).
    for (unsigned w = 0; w < ways_; ++w) {
        Entry *e = entryAt(set, w);
        if (e->valid && e->lutId == lutId && e->hash == hash) {
            e->data = data;
            e->lruStamp = ++stamp_;
            mruWay_[set] = static_cast<std::uint8_t>(w);
            return std::nullopt;
        }
    }

    // Pick victim: first invalid way, else LRU.
    unsigned victimWay = 0;
    std::uint64_t oldest = ~0ull;
    for (unsigned w = 0; w < ways_; ++w) {
        Entry *e = entryAt(set, w);
        if (!e->valid) {
            victimWay = w;
            oldest = 0;
            break;
        }
        if (e->lruStamp < oldest) {
            oldest = e->lruStamp;
            victimWay = w;
        }
    }

    Entry *e = entryAt(set, victimWay);
    std::optional<Victim> victim;
    if (e->valid) {
        victim = Victim{e->lutId, e->hash, e->data};
        AXM_TRACE(Lut, "lut", "insert set ", set, " way ", victimWay,
                  " hash=", trace::hex(hash), " evicts hash=",
                  trace::hex(e->hash), " lut ",
                  static_cast<int>(e->lutId));
    } else {
        AXM_TRACE(Lut, "lut", "insert set ", set, " way ", victimWay,
                  " hash=", trace::hex(hash), " fills invalid way");
    }
    e->valid = true;
    e->lutId = lutId;
    e->hash = hash;
    e->data = data;
    e->lruStamp = ++stamp_;
    mruWay_[set] = static_cast<std::uint8_t>(victimWay);
    return victim;
}

void
LookupTable::erase(LutId lutId, std::uint64_t hash)
{
    const unsigned set = setOf(hash);
    for (unsigned w = 0; w < ways_; ++w) {
        Entry *e = entryAt(set, w);
        if (e->valid && e->lutId == lutId && e->hash == hash) {
            e->valid = false;
            AXM_TRACE(Lut, "lut", "erase set ", set, " way ", w,
                      " hash=", trace::hex(hash));
            return;
        }
    }
}

void
LookupTable::invalidateLut(LutId lutId)
{
    std::uint64_t dropped = 0;
    for (auto &e : entries_) {
        if (e.valid && e.lutId == lutId) {
            e.valid = false;
            ++dropped;
        }
    }
    AXM_TRACE(Lut, "lut", "invalidate lut ", static_cast<int>(lutId),
              " dropped ", dropped, " entries");
}

void
LookupTable::invalidateAll()
{
    for (auto &e : entries_)
        e.valid = false;
}

std::uint64_t
LookupTable::validCount() const
{
    std::uint64_t n = 0;
    for (const auto &e : entries_)
        n += e.valid ? 1 : 0;
    return n;
}

} // namespace axmemo
