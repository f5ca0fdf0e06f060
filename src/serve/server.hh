/**
 * @file
 * The long-lived memo server behind `axmemo serve` (DESIGN.md §14).
 *
 * Two threads split the work by request cost:
 *
 *  - The **reader thread** owns every fd: it poll()s the listening
 *    socket plus all client connections, splits the byte streams into
 *    frames (protocol.hh FrameBuffer) and decodes requests. It serves
 *    the memo requests — Lookup, Update, Stats, Drain — itself, as it
 *    decodes them, and sends every reply produced from one read() in
 *    one write(). A memo request costs a few hundred nanoseconds of
 *    table work, so the socket buffer is its backpressure. While
 *    draining it replies `Draining` to everything new.
 *
 *  - The **worker thread** runs `Run` requests, which simulate for
 *    milliseconds: the reader pushes them onto a bounded queue and
 *    replies `Shed` immediately when it is full. The worker opens a
 *    core RunSession (the prepare()/step() backend split) and advances
 *    it phase by phase. Memo traffic never waits behind a Run.
 *
 * Graceful drain: requestDrain() — called by the SIGTERM poll, the
 * `Drain` opcode, or a test — stops the intake, lets the worker finish
 * the queued Runs, writes a final stats snapshot crash-safely (core
 * atomicWriteFile), and serveUntilDrained() returns.
 *
 * Per-tenant observability: service-latency Distributions (obs/stats)
 * per tenant, span lanes (category "serve") per request, and a
 * Run-queue-depth counter track.
 */

#ifndef AXMEMO_SERVE_SERVER_HH
#define AXMEMO_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/expected.hh"
#include "obs/stats.hh"
#include "serve/protocol.hh"
#include "serve/tenant_table.hh"

namespace axmemo {
namespace serve {

/** Configuration of one server instance. */
struct ServerConfig
{
    /** AF_UNIX socket path; empty = no listening socket (clients
     * attach via attachClient(), as the tests and perfbench do). */
    std::string socketPath;
    TenantTableConfig table{};
    /** Bounded depth of the Run queue; a full queue sheds. Memo
     * requests never queue: the socket buffer is their backpressure. */
    std::size_t queueDepth = 1024;
    /** Drain-snapshot file; empty = no snapshot. */
    std::string snapshotPath;
    /** Dataset scale for `Run` sessions. */
    double runScale = 0.01;
    /** When false, host-latency fields in stats/snapshot JSON are
     * zeroed (the --no-timing byte-comparability contract). */
    bool reportTiming = true;
};

/** Whole-process request counters (a snapshot; see totals()). */
struct ServerTotals
{
    std::uint64_t accepted = 0;  ///< connections accepted
    std::uint64_t requests = 0;  ///< requests executed (either thread)
    std::uint64_t sheds = 0;     ///< Run requests refused with Shed
    std::uint64_t drained = 0;   ///< requests refused with Draining
    std::uint64_t badFrames = 0; ///< malformed frames / damaged streams
    std::uint64_t runs = 0;      ///< Run sessions completed
};

/** The memo server; see file comment. */
class MemoServer
{
  public:
    explicit MemoServer(const ServerConfig &config);
    ~MemoServer();

    MemoServer(const MemoServer &) = delete;
    MemoServer &operator=(const MemoServer &) = delete;

    /** Bind the socket (when configured) and start both threads.
     * ErrorCode::Io when the socket cannot be bound. */
    Expected<void> start();

    /**
     * Adopt an already-connected stream fd (e.g. one end of a
     * socketpair) as a client connection. Usable before or after
     * start(); the server takes ownership of @p fd.
     */
    void attachClient(int fd);

    /** Ask the server to drain: stop intake, finish the queued Runs,
     * write the snapshot. Idempotent, callable from any thread. */
    void requestDrain();

    /**
     * Block until a drain completes. @p pollInterrupt, when true,
     * also watches interruptRequested() (SIGINT/SIGTERM) and converts
     * it into a drain — the `axmemo serve` foreground loop.
     */
    void serveUntilDrained(bool pollInterrupt);

    /** True once the drain finished and both threads exited. */
    bool drained() const { return drainedFlag_.load(); }

    /** A snapshot of the request counters; safe while serving. */
    ServerTotals totals() const;
    /** The memo table. The reader thread owns it while serving; read
     * it after a drain. */
    const TenantTable &tenants() const { return table_; }

    /** Stats-reply / snapshot body: tenant table JSON plus server
     * totals, Run-queue depth and per-tenant latency percentiles. The
     * reader calls it for Stats; other callers wait for the drain. */
    std::string statsJson() const;

  private:
    struct Connection
    {
        /** Closed and set to -1 by the reader under writeMutex. */
        int fd = -1;
        /** Reader thread only. */
        FrameBuffer frames;
        /** Serializes the reader's reply batches, the worker's Run
         * replies and the reader's close of fd. */
        std::mutex writeMutex;
        /** Set by whichever thread's write or read fails. */
        std::atomic<bool> dead{false};
    };

    /** A Run request waiting for the worker. */
    struct QueuedRun
    {
        std::shared_ptr<Connection> conn;
        Request request;
    };

    /** ServerTotals as relaxed atomics: both threads count. */
    struct Counters
    {
        std::atomic<std::uint64_t> accepted{0};
        std::atomic<std::uint64_t> requests{0};
        std::atomic<std::uint64_t> sheds{0};
        std::atomic<std::uint64_t> drained{0};
        std::atomic<std::uint64_t> badFrames{0};
        std::atomic<std::uint64_t> runs{0};
    };

    void readerLoop();
    void workerLoop();
    /** Take the fds attachClient() handed over. */
    void adoptPendingClients();
    /** Accept one pending connection on the listen fd (poll() fires
     * again immediately while more are waiting). */
    void acceptPending();
    void addConnection(int fd);
    /**
     * Read once from @p conn, serve or queue every complete request in
     * what arrived, then write all their replies in one write().
     */
    void pumpConnection(const std::shared_ptr<Connection> &conn);
    /** Serve one decoded request on the reader thread, appending its
     * reply to @p out, or queue it when it is a Run. */
    void serveRequest(const std::shared_ptr<Connection> &conn,
                      const Request &request, std::string *out);
    /** Run one queued Run session on the worker thread. */
    void executeRun(const QueuedRun &run);
    /** Write @p bytes (whole reply frames) to @p conn; a failed write
     * marks it dead. */
    void send(Connection &conn, const std::string &bytes);
    /** Pop one Run; false when the queue is empty and draining. */
    bool popRun(QueuedRun &out);
    /** Close and forget connections marked dead. */
    void sweepDeadConnections();
    void writeSnapshot();

    ServerConfig config_;
    TenantTable table_;
    Counters counters_;

    int listenFd_ = -1;
    /** Reader-side wakeup pipe: attachClient()/requestDrain() write a
     * byte so the poll() loop notices state changes immediately. */
    int wakePipe_[2] = {-1, -1};

    mutable std::mutex mutex_; ///< guards runs_ and pendingFds_
    std::condition_variable runsCv_;
    std::deque<QueuedRun> runs_;
    std::vector<int> pendingFds_; ///< attachClient before reader picks up
    /** Reader thread only (and the destructor, after the join). */
    std::vector<std::shared_ptr<Connection>> connections_;

    std::atomic<bool> draining_{false};
    std::atomic<bool> stop_{false}; ///< reader exit flag
    std::atomic<bool> drainedFlag_{false};

    /** Per-tenant service latency (request read -> its reply batch
     * written), µs. */
    mutable std::mutex statsMutex_;
    std::vector<Distribution> latencyUs_;
    /** Reader only: memo requests per tenant in the current batch. */
    std::vector<std::uint64_t> batchServed_;

    std::thread reader_;
    std::thread worker_;
    std::chrono::steady_clock::time_point startTime_;
};

} // namespace serve
} // namespace axmemo

#endif // AXMEMO_SERVE_SERVER_HH
