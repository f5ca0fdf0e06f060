#include "serve/server.hh"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/interrupt.hh"
#include "common/log.hh"
#include "common/run_control.hh"
#include "core/experiment.hh"
#include "core/output_paths.hh"
#include "obs/json_escape.hh"
#include "obs/span.hh"
#include "workloads/workload.hh"

namespace axmemo {
namespace serve {

namespace {

/** Service-latency distribution geometry: 0..5 ms in 10 µs buckets
 * (overflow bin catches the stragglers; count/sum stay exact). */
constexpr std::uint64_t latencyHiUs = 5000;
constexpr std::uint64_t latencyBucketUs = 10;

/** Approximate quantile from a Distribution's buckets (bucket
 * midpoint of the bucket holding the q-th sample). */
double
distributionPercentile(const Distribution &d, double q)
{
    if (d.count() == 0)
        return 0.0;
    const std::uint64_t target = static_cast<std::uint64_t>(
        q * static_cast<double>(d.count() - 1));
    std::uint64_t seen = d.underflow();
    if (target < seen)
        return static_cast<double>(d.lo());
    for (std::size_t i = 0; i < d.buckets().size(); ++i) {
        seen += d.buckets()[i];
        if (target < seen)
            return static_cast<double>(d.bucketLow(i)) +
                   static_cast<double>(d.bucketSize()) / 2.0;
    }
    return static_cast<double>(d.sampleMax());
}

/** Simulate the "backend:workload" @p spec at dataset @p scale as a
 * RunSession; the reply carries the result JSON or why it could not
 * run. */
Reply
runSession(const std::string &spec, double scale)
{
    Reply r;
    const std::size_t colon = spec.find(':');
    if (colon == std::string::npos) {
        r.status = Status::BadRequest;
        r.text = "run wants 'backend:workload', got '" + spec + "'";
        return r;
    }
    const std::string backend = spec.substr(0, colon);
    const std::string workloadName = spec.substr(colon + 1);

    bool known = false;
    for (const std::string &name : workloadNames())
        known |= name == workloadName;
    if (!known) {
        r.status = Status::BadRequest;
        r.text = "unknown workload '" + workloadName + "'";
        return r;
    }

    try {
        ExperimentConfig config;
        config.dataset.scale = scale;
        const std::unique_ptr<Workload> workload =
            makeWorkload(workloadName);
        SimMemory mem;
        workload->prepare(mem, config.dataset);
        const Program baselineProg = workload->build();

        // The session advances phase by phase; SIGINT/SIGTERM cancels
        // between phases through the RunControl.
        RunControl control;
        control.cancelled = interruptRequested;
        RunSession session(config, *workload, backend, baselineProg, mem,
                           BackendSessionHooks{&control, "serve"});
        while (session.step()) {
        }
        const RunResult result = session.finish();

        std::ostringstream out;
        out << "{\"backend\":\"" << result.backend
            << "\",\"workload\":\"" << workloadName
            << "\",\"cycles\":" << result.stats.cycles
            << ",\"lookups\":" << result.lookups
            << ",\"hits\":" << result.hits
            << ",\"hit_rate\":" << result.hitRate() << "}";
        r.status = Status::Ok;
        r.text = out.str();
    } catch (const AxException &e) {
        r.status = Status::Error;
        r.text = e.error().describe();
    }
    return r;
}

} // namespace

MemoServer::MemoServer(const ServerConfig &config)
    : config_(config), table_(config.table),
      startTime_(std::chrono::steady_clock::now())
{
    latencyUs_.resize(table_.tenantCount());
    for (Distribution &d : latencyUs_)
        d.init(0, latencyHiUs, latencyBucketUs);
    batchServed_.assign(table_.tenantCount(), 0);
}

MemoServer::~MemoServer()
{
    if (reader_.joinable() || worker_.joinable()) {
        requestDrain();
        serveUntilDrained(false);
    }
    for (const auto &conn : connections_)
        if (conn->fd >= 0)
            ::close(conn->fd);
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        if (!config_.socketPath.empty())
            ::unlink(config_.socketPath.c_str());
    }
    for (int fd : pendingFds_)
        ::close(fd);
    if (wakePipe_[0] >= 0)
        ::close(wakePipe_[0]);
    if (wakePipe_[1] >= 0)
        ::close(wakePipe_[1]);
}

Expected<void>
MemoServer::start()
{
    // A client that disconnects mid-reply must cost us an Io error on
    // the write, not a process-killing SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    if (::pipe(wakePipe_) != 0)
        return Error{ErrorCode::Io, "serve",
                     std::string("pipe: ") + std::strerror(errno)};

    if (!config_.socketPath.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (config_.socketPath.size() >= sizeof(addr.sun_path))
            return Error{ErrorCode::Config, "serve",
                         "socket path too long: " + config_.socketPath};
        std::strncpy(addr.sun_path, config_.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);

        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd_ < 0)
            return Error{ErrorCode::Io, "serve",
                         std::string("socket: ") + std::strerror(errno)};
        // A stale socket file from a dead server would fail the bind.
        ::unlink(config_.socketPath.c_str());
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(listenFd_, 64) != 0) {
            const Error error{ErrorCode::Io, "serve",
                              "bind/listen on '" + config_.socketPath +
                                  "': " + std::strerror(errno)};
            ::close(listenFd_);
            listenFd_ = -1;
            return error;
        }
    }

    reader_ = std::thread([this] { readerLoop(); });
    worker_ = std::thread([this] { workerLoop(); });
    return {};
}

void
MemoServer::attachClient(int fd)
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        pendingFds_.push_back(fd);
    }
    if (wakePipe_[1] >= 0) {
        const char byte = 'c';
        (void)!::write(wakePipe_[1], &byte, 1);
    }
}

void
MemoServer::requestDrain()
{
    {
        // Under the queue lock, so a worker about to wait for a Run
        // cannot miss the wake-up.
        const std::lock_guard<std::mutex> lock(mutex_);
        draining_.store(true);
    }
    runsCv_.notify_all();
    if (wakePipe_[1] >= 0) {
        const char byte = 'd';
        (void)!::write(wakePipe_[1], &byte, 1);
    }
}

void
MemoServer::serveUntilDrained(bool pollInterrupt)
{
    // Wait for a drain to be requested (signal, Drain opcode, or an
    // earlier requestDrain()), then let the worker finish the queue.
    while (!draining_.load()) {
        if (pollInterrupt && interruptRequested()) {
            requestDrain();
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (worker_.joinable())
        worker_.join();
    stop_.store(true);
    if (wakePipe_[1] >= 0) {
        const char byte = 's';
        (void)!::write(wakePipe_[1], &byte, 1);
    }
    if (reader_.joinable())
        reader_.join();
    writeSnapshot();
    drainedFlag_.store(true);
}

ServerTotals
MemoServer::totals() const
{
    constexpr auto relaxed = std::memory_order_relaxed;
    ServerTotals t;
    t.accepted = counters_.accepted.load(relaxed);
    t.requests = counters_.requests.load(relaxed);
    t.sheds = counters_.sheds.load(relaxed);
    t.drained = counters_.drained.load(relaxed);
    t.badFrames = counters_.badFrames.load(relaxed);
    t.runs = counters_.runs.load(relaxed);
    return t;
}

// ---------------------------------------------------------------------
// Reader thread: owns every fd and serves the memo requests.

void
MemoServer::addConnection(int fd)
{
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    counters_.accepted.fetch_add(1, std::memory_order_relaxed);
    connections_.push_back(std::move(conn));
}

void
MemoServer::adoptPendingClients()
{
    std::vector<int> fds;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        fds.swap(pendingFds_);
    }
    for (int fd : fds)
        addConnection(fd);
}

void
MemoServer::acceptPending()
{
    // The listen fd is blocking: accept exactly one (POLLIN guarantees
    // it will not block); poll() fires again while more are pending.
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd >= 0)
        addConnection(fd);
}

void
MemoServer::send(Connection &conn, const std::string &bytes)
{
    const std::lock_guard<std::mutex> lock(conn.writeMutex);
    if (conn.fd < 0 || !writeAll(conn.fd, bytes).ok())
        conn.dead.store(true);
}

void
MemoServer::pumpConnection(const std::shared_ptr<Connection> &conn)
{
    // One read per poll round (the fd is blocking; POLLIN guarantees
    // this read returns without blocking, and poll() fires again
    // immediately while more bytes are pending).
    char buffer[64 * 1024];
    ssize_t n;
    do {
        n = ::read(conn->fd, buffer, sizeof(buffer));
    } while (n < 0 && errno == EINTR);
    const auto readAt = std::chrono::steady_clock::now();
    if (n <= 0) {
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
            conn->dead.store(true);
        if (n < 0)
            return;
    } else {
        conn->frames.feed(buffer, static_cast<std::size_t>(n));
    }

    std::string replies;
    std::string payload;
    while (conn->frames.next(&payload)) {
        const Expected<Request> request = decodeRequest(payload);
        if (request.ok()) {
            serveRequest(conn, request.value(), &replies);
            continue;
        }
        counters_.badFrames.fetch_add(1, std::memory_order_relaxed);
        Reply bad;
        bad.status = Status::BadRequest;
        bad.text = request.error().message;
        appendReplyFrame(&replies, bad);
    }
    if (conn->frames.damaged()) {
        counters_.badFrames.fetch_add(1, std::memory_order_relaxed);
        conn->dead.store(true);
    }
    if (replies.empty())
        return;
    send(*conn, replies);

    // Every memo request of the batch waited from the read until its
    // reply left with the batch.
    const auto us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - readAt)
            .count());
    const std::lock_guard<std::mutex> lock(statsMutex_);
    for (std::size_t t = 0; t < batchServed_.size(); ++t) {
        if (batchServed_[t])
            latencyUs_[t].sample(us, batchServed_[t]);
        batchServed_[t] = 0;
    }
}

void
MemoServer::serveRequest(const std::shared_ptr<Connection> &conn,
                         const Request &request, std::string *out)
{
    Reply r;
    r.seq = request.seq;
    if (draining_.load()) {
        counters_.drained.fetch_add(1, std::memory_order_relaxed);
        r.status = Status::Draining;
        appendReplyFrame(out, r);
        return;
    }

    if (request.op == Op::Run) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (runs_.size() < config_.queueDepth) {
                runs_.push_back({conn, request});
                telemetry::counter("serve.queue_depth",
                                   static_cast<double>(runs_.size()));
                lock.unlock();
                runsCv_.notify_one();
                return;
            }
        }
        // The Run queue is full: shed with status, never block the
        // reader (the backpressure contract).
        counters_.sheds.fetch_add(1, std::memory_order_relaxed);
        r.status = Status::Shed;
        appendReplyFrame(out, r);
        return;
    }

    AXM_SPAN("serve", opName(request.op));
    counters_.requests.fetch_add(1, std::memory_order_relaxed);
    switch (request.op) {
    case Op::Lookup:
    case Op::Update: {
        if (!table_.validTenant(request.tenant)) {
            r.status = Status::BadRequest;
            r.text = "unknown tenant " + std::to_string(request.tenant);
            break;
        }
        ++batchServed_[request.tenant];
        if (request.op == Op::Lookup) {
            const TenantTable::LookupResult result = table_.lookup(
                request.tenant, request.kernel, request.key);
            r.status = result.hit ? Status::Hit : Status::Miss;
            r.data = result.data;
            r.simCycles = static_cast<std::uint32_t>(result.cycles);
        } else {
            Cycle cycles = 0;
            const TenantTable::UpdateOutcome outcome =
                table_.update(request.tenant, request.kernel,
                              request.key, request.data, &cycles);
            r.status = outcome == TenantTable::UpdateOutcome::Stored
                           ? Status::Ok
                           : Status::QuotaExceeded;
            r.simCycles = static_cast<std::uint32_t>(cycles);
        }
        break;
    }
    case Op::Stats:
        r.status = Status::Ok;
        r.text = statsJson();
        break;
    case Op::Drain:
        r.status = Status::Ok;
        break;
    case Op::Run:
        break; // queued above
    }
    appendReplyFrame(out, r);

    // Requests later in the same read are refused with Draining.
    if (request.op == Op::Drain)
        requestDrain();
}

void
MemoServer::sweepDeadConnections()
{
    for (auto it = connections_.begin(); it != connections_.end();) {
        Connection &conn = **it;
        if (!conn.dead.load()) {
            ++it;
            continue;
        }
        {
            // A Run reply in flight finishes first, and none lands on
            // an fd number the next connection may reuse.
            const std::lock_guard<std::mutex> lock(conn.writeMutex);
            ::close(conn.fd);
            conn.fd = -1;
        }
        it = connections_.erase(it);
    }
}

void
MemoServer::readerLoop()
{
    std::vector<pollfd> fds;
    while (!stop_.load()) {
        adoptPendingClients();

        // poll() skips negative fds, so a missing listen socket needs
        // no special case.
        fds.clear();
        fds.push_back({wakePipe_[0], POLLIN, 0});
        fds.push_back({listenFd_, POLLIN, 0});
        for (const auto &conn : connections_)
            fds.push_back({conn->fd, POLLIN, 0});

        if (::poll(fds.data(), fds.size(), 100) < 0) {
            if (errno == EINTR)
                continue;
            axm_warn("serve: poll failed: ", std::strerror(errno));
            break;
        }

        if (fds[0].revents & POLLIN) {
            char drainBuf[64];
            (void)!::read(wakePipe_[0], drainBuf, sizeof(drainBuf));
        }
        for (std::size_t i = 0; i < connections_.size(); ++i)
            if (fds[2 + i].revents & (POLLIN | POLLHUP | POLLERR))
                pumpConnection(connections_[i]);
        if (fds[1].revents & POLLIN)
            acceptPending();
        sweepDeadConnections();
    }
}

// ---------------------------------------------------------------------
// Worker thread: runs Run sessions.

bool
MemoServer::popRun(QueuedRun &out)
{
    std::unique_lock<std::mutex> lock(mutex_);
    runsCv_.wait(lock, [this] { return !runs_.empty() || draining_.load(); });
    if (runs_.empty())
        return false; // draining, and every queued Run has run
    out = std::move(runs_.front());
    runs_.pop_front();
    return true;
}

void
MemoServer::workerLoop()
{
    for (;;) {
        // Scoped per Run, so a finished Run does not keep its
        // connection alive while the worker waits for the next one.
        QueuedRun run;
        if (!popRun(run))
            return;
        executeRun(run);
    }
}

void
MemoServer::executeRun(const QueuedRun &run)
{
    AXM_SPAN("serve", "run");
    counters_.requests.fetch_add(1, std::memory_order_relaxed);
    Reply r = runSession(run.request.text, config_.runScale);
    r.seq = run.request.seq;
    if (r.status == Status::Ok)
        counters_.runs.fetch_add(1, std::memory_order_relaxed);
    std::string bytes;
    appendReplyFrame(&bytes, r);
    send(*run.conn, bytes);
}

// ---------------------------------------------------------------------
// Stats and the drain snapshot.

std::string
MemoServer::statsJson() const
{
    std::ostringstream out;
    std::size_t queueDepth = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        queueDepth = runs_.size();
    }
    const ServerTotals t = totals();
    out << "{\"server\":{\"accepted\":" << t.accepted
        << ",\"requests\":" << t.requests << ",\"sheds\":" << t.sheds
        << ",\"drain_refusals\":" << t.drained
        << ",\"bad_frames\":" << t.badFrames << ",\"runs\":" << t.runs
        << ",\"queue_depth\":" << queueDepth << "},";

    out << "\"latency_us\":{";
    {
        const std::lock_guard<std::mutex> lock(statsMutex_);
        for (std::size_t i = 0; i < latencyUs_.size(); ++i) {
            const Distribution &d = latencyUs_[i];
            if (i)
                out << ",";
            out << "\""
                << jsonEscape(
                       table_.spec(static_cast<std::uint16_t>(i)).name)
                << "\":{\"samples\":" << d.count();
            if (config_.reportTiming)
                out << ",\"mean\":" << d.mean()
                    << ",\"p50\":" << distributionPercentile(d, 0.50)
                    << ",\"p95\":" << distributionPercentile(d, 0.95)
                    << ",\"p99\":" << distributionPercentile(d, 0.99);
            else
                out << ",\"mean\":0,\"p50\":0,\"p95\":0,\"p99\":0";
            out << "}";
        }
    }
    out << "},";

    out << "\"table\":" << table_.statsJson() << "}";
    return out.str();
}

void
MemoServer::writeSnapshot()
{
    if (config_.snapshotPath.empty())
        return;
    std::ostringstream out;
    out << "{\"drained\":true,";
    if (config_.reportTiming) {
        const double uptime =
            std::chrono::duration_cast<std::chrono::duration<double>>(
                std::chrono::steady_clock::now() - startTime_)
                .count();
        out << "\"uptime_s\":" << uptime << ",";
    } else {
        out << "\"uptime_s\":0,";
    }
    out << "\"stats\":" << statsJson() << "}\n";
    const Expected<void> written =
        atomicWriteFile(config_.snapshotPath, out.str());
    if (!written.ok())
        axm_warn("serve: snapshot write failed: ",
                 written.error().describe());
}

} // namespace serve
} // namespace axmemo
