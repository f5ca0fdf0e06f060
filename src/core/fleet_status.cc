#include "core/fleet_status.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <dirent.h>

#include "common/lease.hh"
#include "core/json_value.hh"
#include "core/output_paths.hh"
#include "obs/json_escape.hh"
#include "obs/telemetry.hh"

namespace axmemo {

namespace {

/** Names (not paths) in @p dir matching prefix/suffix, sorted. */
std::vector<std::string>
listNames(const std::string &dir, const std::string &prefix,
          const std::string &suffix)
{
    std::vector<std::string> names;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return names;
    while (const dirent *entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name.size() <= prefix.size() + suffix.size())
            continue;
        if (name.rfind(prefix, 0) != 0)
            continue;
        if (name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        names.push_back(name);
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());
    return names;
}

/** "<prefix><stem><suffix>" → "<stem>". */
std::string
stemOf(const std::string &name, const std::string &prefix,
       const std::string &suffix)
{
    return name.substr(prefix.size(),
                       name.size() - prefix.size() - suffix.size());
}

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Last non-empty line of a JSONL file ("" when none). */
std::string
lastLine(const std::string &text)
{
    std::size_t end = text.size();
    while (end > 0 && (text[end - 1] == '\n' || text[end - 1] == '\r'))
        --end;
    if (end == 0)
        return {};
    const std::size_t start = text.find_last_of('\n', end - 1);
    return text.substr(start == std::string::npos ? 0 : start + 1,
                       end - (start == std::string::npos ? 0 : start + 1));
}

double
numberOr(const JValue &v, const char *key, double fallback)
{
    const JValue *member = v.find(key);
    if (!member)
        return fallback;
    const Expected<double> n = jsonNumber(*member, key);
    return n.ok() ? n.value() : fallback;
}

void
appendDouble(std::string &out, double value)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    out += buf;
}

WorkerStatus *
workerById(std::vector<WorkerStatus> &workers, const std::string &id)
{
    for (WorkerStatus &w : workers) {
        if (w.id == id)
            return &w;
    }
    workers.push_back({});
    workers.back().id = id;
    return &workers.back();
}

/** "1.5G" / "48.2M" / "312k" / "17" style size. */
std::string
humanBytes(std::uint64_t bytes)
{
    char buf[32];
    const double b = static_cast<double>(bytes);
    if (bytes >= 1ull << 30)
        std::snprintf(buf, sizeof(buf), "%.1fG", b / (1ull << 30));
    else if (bytes >= 1ull << 20)
        std::snprintf(buf, sizeof(buf), "%.1fM", b / (1ull << 20));
    else if (bytes >= 1ull << 10)
        std::snprintf(buf, sizeof(buf), "%.0fk", b / (1ull << 10));
    else
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(bytes));
    return buf;
}

} // namespace

const char *
workerStateName(WorkerStatus::State state)
{
    switch (state) {
      case WorkerStatus::State::Running: return "running";
      case WorkerStatus::State::Idle: return "idle";
      case WorkerStatus::State::Done: return "done";
      case WorkerStatus::State::Dead: return "dead";
    }
    return "unknown";
}

FleetStatus
readFleetStatus(const std::string &dir, double leaseSeconds)
{
    FleetStatus fleet;
    fleet.dir = dir;
    fleet.leaseSeconds = leaseSeconds > 0 ? leaseSeconds : 30.0;

    // A run's --out directory is accepted directly: descend into the
    // default --workers layout when the argument is not itself a
    // shard directory.
    const std::string claims = joinPath(fleet.dir, "claims");
    if (fileAgeSeconds(claims) < 0.0) {
        const std::string nested = joinPath(fleet.dir, "shards");
        if (fileAgeSeconds(joinPath(nested, "claims")) >= 0.0 ||
            !listNames(nested, "metrics.", ".jsonl").empty())
            fleet.dir = nested;
    }
    const std::string claimsDir = joinPath(fleet.dir, "claims");

    // Workers surface through their metrics snapshots first (written
    // on attach), then manifests/journals for fleets predating the
    // snapshot files.
    for (const std::string &name :
         listNames(fleet.dir, "metrics.", ".jsonl")) {
        const std::string id = stemOf(name, "metrics.", ".jsonl");
        WorkerStatus &w = *workerById(fleet.workers, id);
        const std::string path = joinPath(fleet.dir, name);
        w.snapshotAgeSeconds = fileAgeSeconds(path);
        const Expected<JValue> snap =
            parseJsonValue(lastLine(readWholeFile(path)));
        if (!snap.ok())
            continue;
        const JValue &v = snap.value();
        w.jobsDone = static_cast<std::uint64_t>(
            numberOr(v, "jobs_done", 0.0));
        fleet.jobsTotal = std::max(
            fleet.jobsTotal,
            static_cast<std::uint64_t>(numberOr(v, "jobs_total", 0.0)));
        w.jobsPerSecond = numberOr(v, "jobs_per_s", 0.0);
        w.minstrPerSecond = numberOr(v, "minstr_per_s", 0.0);
        w.memoHitRate = numberOr(v, "memo_hit_rate", 0.0);
        w.lutOccupancy = numberOr(v, "lut_occupancy", 0.0);
        w.rssBytes =
            static_cast<std::uint64_t>(numberOr(v, "rss_bytes", 0.0));
        w.journalLagSeconds = numberOr(v, "journal_lag_s", -1.0);
    }
    std::vector<std::string> manifestIds;
    for (const std::string &name :
         listNames(fleet.dir, "shard.", ".json")) {
        const std::string id = stemOf(name, "shard.", ".json");
        manifestIds.push_back(id);
        workerById(fleet.workers, id);
    }
    for (const std::string &name :
         listNames(fleet.dir, "journal.", ".ckpt"))
        workerById(fleet.workers, stemOf(name, "journal.", ".ckpt"));

    // Done markers are the queue's ground truth for fleet progress —
    // counted by name only, so status stays O(readdir) even on a
    // 10^5-job dse grid.
    fleet.jobsDone = listNames(claimsDir, "", ".done").size();

    // Live claims: holder identity + full job key from the lease body;
    // oldest first is the slowest-job watchlist.
    for (const std::string &name : listNames(claimsDir, "", ".claim")) {
        const std::string path = joinPath(claimsDir, name);
        const double age = fileAgeSeconds(path);
        if (age < 0.0)
            continue; // released between readdir and stat
        ClaimStatus claim;
        claim.ageSeconds = age;
        const Expected<JValue> body =
            parseJsonValue(readWholeFile(path));
        if (body.ok()) {
            if (const JValue *key = body.value().find("key");
                key && key->kind == JValue::Kind::String)
                claim.key = key->token;
            if (const JValue *worker = body.value().find("worker");
                worker && worker->kind == JValue::Kind::String)
                claim.worker = worker->token;
        }
        if (!claim.worker.empty())
            ++workerById(fleet.workers, claim.worker)->claimsHeld;
        fleet.watchlist.push_back(std::move(claim));
    }
    std::stable_sort(fleet.watchlist.begin(), fleet.watchlist.end(),
                     [](const ClaimStatus &a, const ClaimStatus &b) {
                         return a.ageSeconds > b.ageSeconds;
                     });

    // Failed-job count: available once workers have written manifests
    // (merge re-simulates those jobs deterministically either way).
    for (const std::string &id : manifestIds) {
        const Expected<JValue> manifest = parseJsonValue(
            readWholeFile(joinPath(fleet.dir, "shard." + id + ".json")));
        if (manifest.ok())
            fleet.jobsFailed += static_cast<std::uint64_t>(
                numberOr(manifest.value(), "failed", 0.0));
    }

    for (WorkerStatus &w : fleet.workers) {
        const bool hasManifest =
            std::find(manifestIds.begin(), manifestIds.end(), w.id) !=
            manifestIds.end();
        const bool fresh = w.snapshotAgeSeconds >= 0.0 &&
                           w.snapshotAgeSeconds <= fleet.leaseSeconds;
        if (hasManifest)
            w.state = WorkerStatus::State::Done;
        else if (fresh)
            w.state = w.claimsHeld ? WorkerStatus::State::Running
                                   : WorkerStatus::State::Idle;
        else
            w.state = WorkerStatus::State::Dead;
        if (w.state == WorkerStatus::State::Running ||
            w.state == WorkerStatus::State::Idle) {
            fleet.aggregateJobsPerSecond += w.jobsPerSecond;
            fleet.aggregateMinstrPerSecond += w.minstrPerSecond;
        }
    }

    if (fleet.jobsTotal > fleet.jobsDone &&
        fleet.aggregateJobsPerSecond > 0.0)
        fleet.etaSeconds = (fleet.jobsTotal - fleet.jobsDone) /
                           fleet.aggregateJobsPerSecond;
    else if (fleet.jobsTotal && fleet.jobsDone >= fleet.jobsTotal)
        fleet.etaSeconds = 0.0;
    else if (fleet.jobsTotal > fleet.jobsDone)
        // Jobs remain but every EWMA rate has decayed to zero: the
        // fleet is stalled, which is different from "no total yet"
        // (etaSeconds stays -1 so existing consumers are unchanged).
        fleet.stalled = true;
    return fleet;
}

std::string
renderFleetText(const FleetStatus &fleet)
{
    std::ostringstream os;
    os.precision(3);
    const double progress =
        fleet.jobsTotal ? static_cast<double>(fleet.jobsDone) /
                              static_cast<double>(fleet.jobsTotal)
                        : 0.0;
    os << "fleet " << fleet.dir << " — " << fleet.jobsDone << "/"
       << fleet.jobsTotal << " jobs";
    if (fleet.jobsFailed)
        os << " (" << fleet.jobsFailed << " failed)";
    os << ", " << fleet.aggregateJobsPerSecond << " jobs/s, "
       << fleet.aggregateMinstrPerSecond << " Minstr/s";
    if (fleet.etaSeconds >= 0.0)
        os << ", ETA " << fleet.etaSeconds << "s";
    else if (fleet.stalled)
        os << ", ETA stalled";
    os << "\n";

    constexpr int barWidth = 40;
    const int filled = static_cast<int>(progress * barWidth + 0.5);
    os << "[";
    for (int i = 0; i < barWidth; ++i)
        os << (i < filled ? '#' : '.');
    os << "] " << static_cast<int>(progress * 100.0 + 0.5) << "%\n";

    char row[160];
    std::snprintf(row, sizeof(row), "%-12s %-8s %8s %8s %9s %6s %6s %8s %7s\n",
                  "worker", "state", "done", "jobs/s", "Minstr/s", "hit",
                  "lut", "rss", "lag");
    os << row;
    for (const WorkerStatus &w : fleet.workers) {
        char lag[24];
        if (w.journalLagSeconds >= 0.0)
            std::snprintf(lag, sizeof(lag), "%.1fs", w.journalLagSeconds);
        else
            std::snprintf(lag, sizeof(lag), "-");
        std::snprintf(row, sizeof(row),
                      "%-12s %-8s %8llu %8.2f %9.1f %6.2f %6.1f %8s %7s\n",
                      w.id.c_str(), workerStateName(w.state),
                      static_cast<unsigned long long>(w.jobsDone),
                      w.jobsPerSecond, w.minstrPerSecond, w.memoHitRate,
                      w.lutOccupancy, humanBytes(w.rssBytes).c_str(),
                      lag);
        os << row;
    }
    if (!fleet.watchlist.empty()) {
        os << "slowest live claims:\n";
        const std::size_t shown =
            std::min<std::size_t>(fleet.watchlist.size(), 5);
        for (std::size_t i = 0; i < shown; ++i) {
            const ClaimStatus &c = fleet.watchlist[i];
            std::snprintf(row, sizeof(row), "  %8.1fs  %-12s  ",
                          c.ageSeconds, c.worker.c_str());
            os << row
               << (c.key.size() > 100 ? c.key.substr(0, 100) + "..."
                                      : c.key)
               << "\n";
        }
    }
    return os.str();
}

std::string
renderFleetJson(const FleetStatus &fleet)
{
    const double progress =
        fleet.jobsTotal ? static_cast<double>(fleet.jobsDone) /
                              static_cast<double>(fleet.jobsTotal)
                        : 0.0;
    std::string out = "{\"dir\":\"";
    out += jsonEscape(fleet.dir);
    out += "\",\"lease_seconds\":";
    appendDouble(out, fleet.leaseSeconds);
    out += ",\"jobs_total\":" + std::to_string(fleet.jobsTotal);
    out += ",\"jobs_done\":" + std::to_string(fleet.jobsDone);
    out += ",\"jobs_failed\":" + std::to_string(fleet.jobsFailed);
    out += ",\"progress\":";
    appendDouble(out, progress);
    out += ",\"jobs_per_second\":";
    appendDouble(out, fleet.aggregateJobsPerSecond);
    out += ",\"minstr_per_second\":";
    appendDouble(out, fleet.aggregateMinstrPerSecond);
    out += ",\"eta_seconds\":";
    appendDouble(out, fleet.etaSeconds);
    out += ",\"stalled\":";
    out += fleet.stalled ? "true" : "false";
    out += ",\"workers\":[";
    for (std::size_t i = 0; i < fleet.workers.size(); ++i) {
        const WorkerStatus &w = fleet.workers[i];
        if (i)
            out += ',';
        out += "{\"worker\":\"";
        out += jsonEscape(w.id);
        out += "\",\"state\":\"";
        out += workerStateName(w.state);
        out += "\",\"snapshot_age_s\":";
        appendDouble(out, w.snapshotAgeSeconds);
        out += ",\"jobs_done\":" + std::to_string(w.jobsDone);
        out += ",\"jobs_per_s\":";
        appendDouble(out, w.jobsPerSecond);
        out += ",\"minstr_per_s\":";
        appendDouble(out, w.minstrPerSecond);
        out += ",\"memo_hit_rate\":";
        appendDouble(out, w.memoHitRate);
        out += ",\"lut_occupancy\":";
        appendDouble(out, w.lutOccupancy);
        out += ",\"rss_bytes\":" + std::to_string(w.rssBytes);
        out += ",\"journal_lag_s\":";
        appendDouble(out, w.journalLagSeconds);
        out += ",\"claims_held\":" + std::to_string(w.claimsHeld);
        out += '}';
    }
    out += "],\"watchlist\":[";
    for (std::size_t i = 0; i < fleet.watchlist.size(); ++i) {
        const ClaimStatus &c = fleet.watchlist[i];
        if (i)
            out += ',';
        out += "{\"key\":\"";
        out += jsonEscape(c.key);
        out += "\",\"worker\":\"";
        out += jsonEscape(c.worker);
        out += "\",\"age_seconds\":";
        appendDouble(out, c.ageSeconds);
        out += '}';
    }
    out += "]}\n";
    return out;
}

namespace {

/** Validate one timeline document and return its traceEvents body
 * (the bytes between the shared prefix/suffix); false = damaged. */
bool
timelineBody(const std::string &document, std::string *body)
{
    const std::size_t prefixLen =
        std::strlen(telemetry::timelinePrefix);
    const std::size_t suffixLen =
        std::strlen(telemetry::timelineSuffix);
    if (document.size() < prefixLen + suffixLen)
        return false;
    if (document.compare(0, prefixLen, telemetry::timelinePrefix) != 0)
        return false;
    if (document.compare(document.size() - suffixLen, suffixLen,
                         telemetry::timelineSuffix) != 0)
        return false;
    if (!parseJsonValue(document).ok())
        return false;
    *body = document.substr(prefixLen,
                            document.size() - prefixLen - suffixLen);
    return true;
}

} // namespace

std::string
stitchTimelines(const std::vector<std::string> &paths,
                const std::string &extraDocument, std::size_t *damaged)
{
    std::vector<std::string> bodies;
    std::size_t bad = 0;
    for (const std::string &path : paths) {
        std::string body;
        if (timelineBody(readWholeFile(path), &body))
            bodies.push_back(std::move(body));
        else
            ++bad;
    }
    if (!extraDocument.empty()) {
        std::string body;
        if (timelineBody(extraDocument, &body))
            bodies.push_back(std::move(body));
        else
            ++bad;
    }
    if (damaged)
        *damaged = bad;
    std::string out = telemetry::timelinePrefix;
    for (std::size_t i = 0; i < bodies.size(); ++i) {
        if (i)
            out += ",\n";
        out += bodies[i];
    }
    out += telemetry::timelineSuffix;
    return out;
}

} // namespace axmemo
