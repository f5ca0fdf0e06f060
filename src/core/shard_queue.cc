#include "core/shard_queue.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include <dirent.h>

#include "common/bits.hh"
#include "common/lease.hh"
#include "common/log.hh"
#include "core/output_paths.hh"
#include "obs/json_escape.hh"
#include "obs/telemetry.hh"

namespace axmemo {

namespace {

/** Files in @p dir whose name starts with @p prefix and ends with
 * @p suffix, as full paths sorted by name (deterministic merges). */
std::vector<std::string>
listMatching(const std::string &dir, const std::string &prefix,
             const std::string &suffix)
{
    std::vector<std::string> paths;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return paths;
    while (const dirent *entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name.size() <= prefix.size() + suffix.size())
            continue;
        if (name.rfind(prefix, 0) != 0)
            continue;
        if (name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        paths.push_back(joinPath(dir, name));
    }
    ::closedir(d);
    std::sort(paths.begin(), paths.end());
    return paths;
}

} // namespace

ShardQueue::ShardQueue(std::string dir, std::string workerId,
                       double leaseSeconds)
    : dir_(std::move(dir)), workerId_(std::move(workerId)),
      leaseSeconds_(leaseSeconds > 0 ? leaseSeconds : 30.0)
{
    claimsDir_ = joinPath(dir_, "claims");
    const Expected<void> made = ensureDir(claimsDir_);
    if (!made.ok())
        axm_warn("shard queue: ", made.error().describe(),
                 " (claims will fail)");
    // Metrics snapshots ride the lease heartbeat: the first one lands
    // as soon as the worker joins, so `axmemo status` sees it before
    // any job completes.
    telemetry::setSnapshotPath(
        joinPath(dir_, "metrics." + workerId_ + ".jsonl"), workerId_);
    heartbeat_ = std::thread([this] { heartbeatLoop(); });
}

ShardQueue::~ShardQueue()
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    stopCv_.notify_all();
    if (heartbeat_.joinable())
        heartbeat_.join();
}

std::string
ShardQueue::hashKey(const std::string &key)
{
    // FNV-1a 64. A collision would make two distinct jobs share one
    // claim slot; the done marker carries the full key, so a collision
    // degrades to "the other job re-simulates at merge", never to a
    // wrong result.
    const std::uint64_t h = fnv1a64(key.data(), key.size());
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
ShardQueue::claimPath(const std::string &key) const
{
    return joinPath(claimsDir_, hashKey(key) + ".claim");
}

std::string
ShardQueue::donePath(const std::string &key) const
{
    return joinPath(claimsDir_, hashKey(key) + ".done");
}

std::string
ShardQueue::leaseBody(const std::string &key) const
{
    std::string body = "{\"key\":\"";
    body += jsonEscape(key);
    body += "\",\"worker\":\"";
    body += jsonEscape(workerId_);
    body += "\"}\n";
    return body;
}

ShardQueue::Claim
ShardQueue::tryClaim(const std::string &key)
{
    AXM_SPAN("shard", "claim");
    const std::string done = donePath(key);
    const std::string claim = claimPath(key);
    if (fileAgeSeconds(done) < 0.0) { // no done marker yet
        Expected<bool> created = createExclusive(claim, leaseBody(key));
        bool stole = false;
        if (created.ok() && !created.value()) {
            // Claim exists. Stale? Steal via a rename tombstone so two
            // concurrent stealers cannot both recreate the claim.
            const double age = fileAgeSeconds(claim);
            if (age <= leaseSeconds_)
                return Claim::Busy;
            const std::string tombstone =
                claim + ".steal." + workerId_;
            if (!renameFile(claim, tombstone))
                return Claim::Busy; // lost the steal race
            removeFileQuiet(tombstone);
            stole = true;
            created = createExclusive(claim, leaseBody(key));
            if (created.ok() && !created.value())
                return Claim::Busy; // recreated under us — back off
        }
        if (!created.ok()) {
            axm_warn("shard claim failed: ",
                     created.error().describe());
            return Claim::Busy;
        }
        // Re-check the done marker: a worker may have finished the job
        // between our first check and the (stolen) claim.
        if (fileAgeSeconds(done) >= 0.0) {
            removeFileQuiet(claim);
        } else {
            const std::lock_guard<std::mutex> lock(mutex_);
            held_.insert(claim);
            ++counters_.claimed;
            if (stole)
                ++counters_.stolen;
            return Claim::Acquired;
        }
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.foreign;
    return Claim::Done;
}

void
ShardQueue::markDone(const std::string &key, bool ok)
{
    AXM_SPAN("shard", "markDone");
    std::string body = "{\"key\":\"";
    body += jsonEscape(key);
    body += "\",\"worker\":\"";
    body += jsonEscape(workerId_);
    body += ok ? "\",\"status\":\"ok\"}\n"
               : "\",\"status\":\"failed\"}\n";
    const Expected<void> wrote = atomicWriteFile(donePath(key), body);
    if (!wrote.ok())
        axm_warn("shard done marker: ", wrote.error().describe());
    const std::string claim = claimPath(key);
    removeFileQuiet(claim);
    const std::lock_guard<std::mutex> lock(mutex_);
    held_.erase(claim);
    if (ok)
        ++counters_.completed;
    else
        ++counters_.failed;
}

void
ShardQueue::release(const std::string &key)
{
    const std::string claim = claimPath(key);
    removeFileQuiet(claim);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (held_.erase(claim))
        ++counters_.released;
}

std::string
ShardQueue::journalPath() const
{
    return joinPath(dir_, "journal." + workerId_ + ".ckpt");
}

ShardCounters
ShardQueue::counters() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

Expected<void>
ShardQueue::writeShardManifest(std::size_t jobs,
                               std::uint64_t macroInsts,
                               double wallSeconds) const
{
    const ShardCounters c = counters();
    std::string doc = "{\"worker\":\"";
    doc += jsonEscape(workerId_);
    doc += "\",\"claimed\":" + std::to_string(c.claimed);
    doc += ",\"stolen\":" + std::to_string(c.stolen);
    doc += ",\"foreign\":" + std::to_string(c.foreign);
    doc += ",\"completed\":" + std::to_string(c.completed);
    doc += ",\"failed\":" + std::to_string(c.failed);
    doc += ",\"released\":" + std::to_string(c.released);
    doc += ",\"jobs\":" + std::to_string(jobs);
    doc += ",\"simulated_macro_insts\":" + std::to_string(macroInsts);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6f", wallSeconds);
    doc += ",\"wall_seconds\":";
    doc += buf;
    doc += "}\n";
    // Flush a final metrics snapshot alongside the manifest so status
    // readers see the terminal jobs_done/throughput figures.
    telemetry::heartbeat();
    return atomicWriteFile(
        joinPath(dir_, "shard." + workerId_ + ".json"), doc);
}

std::vector<std::string>
ShardQueue::journalSegments(const std::string &dir)
{
    return listMatching(dir, "journal.", ".ckpt");
}

std::vector<std::string>
ShardQueue::shardManifests(const std::string &dir)
{
    return listMatching(dir, "shard.", ".json");
}

std::vector<std::string>
ShardQueue::metricsFiles(const std::string &dir)
{
    return listMatching(dir, "metrics.", ".jsonl");
}

std::vector<std::string>
ShardQueue::timelineSegments(const std::string &dir)
{
    return listMatching(dir, "timeline.", ".json");
}

std::string
ShardQueue::timelinePath() const
{
    return joinPath(dir_, "timeline." + workerId_ + ".json");
}

void
ShardQueue::heartbeatLoop()
{
    // Touch every held claim at a third of the lease window: two missed
    // beats still keep the claim alive, while a SIGKILLed worker's
    // claims expire one window after its last beat.
    std::unique_lock<std::mutex> lock(mutex_);
    const auto interval = std::chrono::duration<double>(
        std::max(0.2, leaseSeconds_ / 3.0));
    while (!stopping_) {
        stopCv_.wait_for(lock, interval,
                         [this] { return stopping_; });
        if (stopping_)
            return;
        const std::vector<std::string> held(held_.begin(),
                                            held_.end());
        lock.unlock();
        for (const std::string &path : held)
            touchFile(path); // gone = stolen/released; harmless
        telemetry::heartbeat();
        lock.lock();
    }
}

} // namespace axmemo
