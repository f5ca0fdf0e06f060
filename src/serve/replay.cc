#include "serve/replay.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include "obs/json_escape.hh"

namespace axmemo {
namespace serve {

namespace {

/** Nearest-rank percentile over a sorted sample vector. */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t index = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1));
    return sorted[index];
}

/** Send one request and read its reply (closed-loop). */
Expected<Reply>
roundTrip(int fd, const Request &request)
{
    const Expected<void> sent = writeFrame(fd, encodeRequest(request));
    if (!sent.ok())
        return sent.error();
    std::string payload;
    const Expected<bool> got = readFrame(fd, &payload);
    if (!got.ok())
        return got.error();
    if (!got.value())
        return Error{ErrorCode::Io, "replay",
                     "server closed the stream mid-replay"};
    return decodeReply(payload);
}

} // namespace

Expected<int>
connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return Error{ErrorCode::Config, "replay",
                     "socket path too long: " + path};
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return Error{ErrorCode::Io, "replay",
                     std::string("socket: ") + std::strerror(errno)};
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const Error error{ErrorCode::Io, "replay",
                          "connect to '" + path +
                              "': " + std::strerror(errno)};
        ::close(fd);
        return error;
    }
    return fd;
}

Expected<ReplayReport>
replayTrace(int fd, const RequestTraceSpec &spec,
            const std::vector<TraceRequest> &trace,
            const ReplayConfig &config)
{
    ReplayReport report;
    report.tenants.resize(spec.tenants.size());
    for (std::size_t i = 0; i < spec.tenants.size(); ++i)
        report.tenants[i].name = spec.tenants[i].name;

    std::vector<double> latenciesUs;
    latenciesUs.reserve(trace.size());
    const auto start = std::chrono::steady_clock::now();

    std::uint32_t seq = 0;
    for (const TraceRequest &tr : trace) {
        ++report.requests;
        Request lookup;
        lookup.op = Op::Lookup;
        lookup.seq = ++seq;
        lookup.tenant = tr.tenant;
        lookup.kernel = tr.kernel;
        lookup.key = tr.key;

        const auto sentAt = std::chrono::steady_clock::now();
        const Expected<Reply> replied = roundTrip(fd, lookup);
        if (!replied.ok())
            return replied.error();
        const Reply &reply = replied.value();
        latenciesUs.push_back(
            std::chrono::duration_cast<std::chrono::duration<
                double, std::micro>>(std::chrono::steady_clock::now() -
                                     sentAt)
                .count());

        ReplayTenantReport *tenant =
            tr.tenant < report.tenants.size()
                ? &report.tenants[tr.tenant]
                : nullptr;
        switch (reply.status) {
        case Status::Hit:
            if (tenant) {
                ++tenant->lookups;
                ++tenant->hits;
            }
            continue;
        case Status::Miss:
            if (tenant) {
                ++tenant->lookups;
                ++tenant->misses;
            }
            break; // memoize-on-miss below
        case Status::Shed:
            ++report.sheds;
            continue;
        case Status::Draining:
            ++report.drained;
            continue;
        default:
            ++report.errors;
            continue;
        }

        Request update;
        update.op = Op::Update;
        update.seq = ++seq;
        update.tenant = tr.tenant;
        update.kernel = tr.kernel;
        update.key = tr.key;
        update.data = traceResultFor(tr.kernel, tr.key);
        const Expected<Reply> stored = roundTrip(fd, update);
        if (!stored.ok())
            return stored.error();
        switch (stored.value().status) {
        case Status::Ok:
            if (tenant)
                ++tenant->updates;
            break;
        case Status::QuotaExceeded:
            if (tenant)
                ++tenant->quotaRejects;
            break;
        case Status::Shed:
            ++report.sheds;
            break;
        case Status::Draining:
            ++report.drained;
            break;
        default:
            ++report.errors;
            break;
        }
    }

    if (config.reportTiming) {
        report.elapsedSeconds =
            std::chrono::duration_cast<
                std::chrono::duration<double>>(
                std::chrono::steady_clock::now() - start)
                .count();
        std::sort(latenciesUs.begin(), latenciesUs.end());
        report.p50Us = percentile(latenciesUs, 0.50);
        report.p95Us = percentile(latenciesUs, 0.95);
        report.p99Us = percentile(latenciesUs, 0.99);
        if (!latenciesUs.empty()) {
            double sum = 0.0;
            for (double v : latenciesUs)
                sum += v;
            report.meanUs = sum / static_cast<double>(latenciesUs.size());
        }
    }

    Request stats;
    stats.op = Op::Stats;
    stats.seq = ++seq;
    if (const Expected<Reply> replied = roundTrip(fd, stats);
        replied.ok() && replied.value().status == Status::Ok)
        report.serverStats = replied.value().text;

    if (config.drainAfter) {
        Request drain;
        drain.op = Op::Drain;
        drain.seq = ++seq;
        const Expected<Reply> replied = roundTrip(fd, drain);
        if (!replied.ok())
            return replied.error();
    }

    return report;
}

std::string
ReplayReport::toJson() const
{
    std::ostringstream out;
    out << "{\"requests\":" << requests << ",\"sheds\":" << sheds
        << ",\"shed_rate\":" << shedRate()
        << ",\"drain_refusals\":" << drained
        << ",\"errors\":" << errors
        << ",\"latency_us\":{\"mean\":" << meanUs
        << ",\"p50\":" << p50Us << ",\"p95\":" << p95Us
        << ",\"p99\":" << p99Us << "}"
        << ",\"elapsed_s\":" << elapsedSeconds << ",\"tenants\":[";
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const ReplayTenantReport &t = tenants[i];
        if (i)
            out << ",";
        out << "{\"name\":\"" << jsonEscape(t.name)
            << "\",\"lookups\":" << t.lookups << ",\"hits\":" << t.hits
            << ",\"misses\":" << t.misses
            << ",\"hit_rate\":" << t.hitRate()
            << ",\"updates\":" << t.updates
            << ",\"quota_rejects\":" << t.quotaRejects << "}";
    }
    out << "]";
    if (!serverStats.empty())
        out << ",\"server\":" << serverStats;
    out << "}";
    return out.str();
}

} // namespace serve
} // namespace axmemo
