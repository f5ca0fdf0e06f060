#include "serve/tenant_table.hh"

#include <sstream>

#include "common/expected.hh"
#include "crc/hw_model.hh"
#include "memo/memo_unit.hh"
#include "obs/json_escape.hh"

namespace axmemo {
namespace serve {

namespace {

/** The hashed request message: kernel byte then the key, LE. */
constexpr unsigned messageBytes = 9;

} // namespace

const char *
partitionPolicyName(PartitionPolicy policy)
{
    return policy == PartitionPolicy::Shared ? "shared" : "partitioned";
}

TenantTable::TenantTable(const TenantTableConfig &config)
    : config_(config), crc_(MemoUnitConfig{}.crc),
      lut_(LutConfig{.name = "serve-lut",
                     .sizeBytes = config.lutBytes,
                     .dataBytes = 8}),
      tenants_(config.tenants), stats_(config.tenants.size())
{
    if (tenants_.empty())
        raiseError(ErrorCode::Config, "serve",
                   "tenant table needs at least one tenant");
    if (config_.policy == PartitionPolicy::Partitioned &&
        tenants_.size() > maxLutsPerThread)
        raiseError(ErrorCode::Config, "serve",
                   "partitioned policy supports at most " +
                       std::to_string(maxLutsPerThread) +
                       " tenants (3-bit LUT_ID); got " +
                       std::to_string(tenants_.size()));
    const MemoUnitConfig unit{};
    feedCycles_ = CrcHwModel(unit.crcHw).cyclesForBytes(messageBytes);
    lutLatency_ = unit.l1LutLatency;
}

LutId
TenantTable::lutIdFor(std::uint16_t tenant) const
{
    if (config_.policy == PartitionPolicy::Shared)
        return 0;
    return static_cast<LutId>(tenant);
}

std::uint64_t
TenantTable::hashFor(std::uint8_t kernel, std::uint64_t key) const
{
    std::uint8_t message[messageBytes];
    message[0] = kernel;
    for (unsigned i = 0; i < 8; ++i)
        message[1 + i] = static_cast<std::uint8_t>(key >> (8 * i));
    return crc_.finalize(
        crc_.update(crc_.initial(), message, sizeof(message)));
}

TenantTable::LookupResult
TenantTable::lookup(std::uint16_t tenant, std::uint8_t kernel,
                    std::uint64_t key)
{
    TenantStats &stats = stats_[tenant];
    ++stats.lookups;
    LookupResult result;
    result.cycles = feedCycles_ + lutLatency_;
    const auto data = lut_.lookup(lutIdFor(tenant), hashFor(kernel, key));
    if (data) {
        result.hit = true;
        result.data = *data;
        ++stats.hits;
    } else {
        ++stats.misses;
    }
    return result;
}

TenantTable::UpdateOutcome
TenantTable::update(std::uint16_t tenant, std::uint8_t kernel,
                    std::uint64_t key, std::uint64_t data, Cycle *cycles)
{
    TenantStats &stats = stats_[tenant];
    ++stats.updates;
    if (cycles != nullptr)
        *cycles = feedCycles_ + lutLatency_;

    const LutId lutId = lutIdFor(tenant);
    const std::uint64_t hash = hashFor(kernel, key);
    const bool newEntry = !lut_.contains(lutId, hash);
    if (newEntry && tenants_[tenant].quotaEntries > 0 &&
        stats.entries >= tenants_[tenant].quotaEntries) {
        ++stats.quotaRejects;
        return UpdateOutcome::QuotaExceeded;
    }

    const auto victim = lut_.insert(lutId, hash, data);
    if (victim) {
        // Credit the evicted entry back to its owner.
        const auto it = owners_.find(ownerKey(victim->lutId, victim->hash));
        if (it != owners_.end()) {
            --stats_[it->second].entries;
            owners_.erase(it);
        }
    }
    const std::uint64_t slot = ownerKey(lutId, hash);
    if (newEntry) {
        owners_[slot] = tenant;
        ++stats.entries;
    } else {
        // Overwrite of a live entry: ownership follows the writer
        // (only possible under the Shared policy).
        const auto it = owners_.find(slot);
        if (it != owners_.end() && it->second != tenant) {
            --stats_[it->second].entries;
            it->second = tenant;
            ++stats.entries;
        }
    }
    return UpdateOutcome::Stored;
}

void
TenantTable::invalidateTenant(std::uint16_t tenant)
{
    if (config_.policy == PartitionPolicy::Partitioned) {
        lut_.invalidateLut(lutIdFor(tenant));
        for (auto it = owners_.begin(); it != owners_.end();) {
            if (it->second == tenant)
                it = owners_.erase(it);
            else
                ++it;
        }
    } else {
        for (auto it = owners_.begin(); it != owners_.end();) {
            if (it->second == tenant) {
                lut_.erase(static_cast<LutId>(it->first >> 32),
                           it->first & 0xffffffffull);
                it = owners_.erase(it);
            } else {
                ++it;
            }
        }
    }
    stats_[tenant].entries = 0;
}

std::uint64_t
TenantTable::capacityEntries() const
{
    return static_cast<std::uint64_t>(lut_.numSets()) * lut_.ways();
}

std::string
TenantTable::statsJson() const
{
    std::ostringstream out;
    out << "{\"policy\":\"" << partitionPolicyName(config_.policy)
        << "\",\"capacity_entries\":" << capacityEntries()
        << ",\"occupancy\":" << occupancy() << ",\"tenants\":[";
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        const TenantStats &stats = stats_[i];
        if (i)
            out << ",";
        out << "{\"name\":\"" << jsonEscape(tenants_[i].name)
            << "\",\"quota_entries\":" << tenants_[i].quotaEntries
            << ",\"lookups\":" << stats.lookups
            << ",\"hits\":" << stats.hits
            << ",\"misses\":" << stats.misses
            << ",\"hit_rate\":" << stats.hitRate()
            << ",\"updates\":" << stats.updates
            << ",\"quota_rejects\":" << stats.quotaRejects
            << ",\"entries\":" << stats.entries << "}";
    }
    out << "]}";
    return out.str();
}

} // namespace serve
} // namespace axmemo
