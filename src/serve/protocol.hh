/**
 * @file
 * Wire protocol of `axmemo serve` (DESIGN.md §14).
 *
 * Transport is a local byte stream — an AF_UNIX socket or a pipe pair —
 * carrying length-prefixed frames:
 *
 *   frame   := u32le payload-length | payload
 *   request := u8 op | u32le seq | body
 *   reply   := u8 status | u32le seq | u64le data | u32le simCycles
 *              | u32le textLen | text
 *
 * All integers are little-endian; the codec is explicit byte
 * assembly (no struct punning), so the format is identical across
 * hosts. `seq` is an opaque client token echoed verbatim in the reply
 * — the client correlates pipelined requests by it.
 *
 * Requests:
 *   Lookup  (tenant, kernel, key)        -> Hit {data, simCycles}
 *                                           | Miss {simCycles}
 *   Update  (tenant, kernel, key, data)  -> Ok | QuotaExceeded
 *   Stats   ()                           -> Ok {text: stats JSON}
 *   Run     (tenant, text: "backend:workload")
 *                                        -> Ok {text: result JSON}
 *   Drain   ()                           -> Ok; server drains and exits
 *
 * Backpressure: memo requests (Lookup, Update, Stats, Drain) are
 * answered as they are read, so the socket buffer is their
 * backpressure. Only `Run` waits in the server's bounded queue; when
 * it is full the reader answers `Shed` immediately — it never blocks
 * the accept loop and never silently drops a frame. During drain new
 * requests get `Draining`. Clients must treat both as retryable.
 */

#ifndef AXMEMO_SERVE_PROTOCOL_HH
#define AXMEMO_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "common/expected.hh"

namespace axmemo {
namespace serve {

/** Request opcodes; see file comment. */
enum class Op : std::uint8_t
{
    Lookup = 1,
    Update = 2,
    Stats = 3,
    Run = 4,
    Drain = 5,
};

/** Reply statuses; see file comment. */
enum class Status : std::uint8_t
{
    Ok = 0,
    Hit = 1,
    Miss = 2,
    /** Bounded Run queue full; request not processed (retryable). */
    Shed = 3,
    /** Update refused: the tenant is at its LUT entry quota. */
    QuotaExceeded = 4,
    BadRequest = 5,
    /** Server is draining; request not processed (not retryable). */
    Draining = 6,
    Error = 7,
};

const char *opName(Op op);
const char *statusName(Status status);

/** One decoded request frame. */
struct Request
{
    Op op = Op::Lookup;
    std::uint32_t seq = 0;
    std::uint16_t tenant = 0;
    std::uint8_t kernel = 0;
    std::uint64_t key = 0;
    /** Update only: the computed result to memoize. */
    std::uint64_t data = 0;
    /** Run only: "backend:workload". */
    std::string text;
};

/** One decoded reply frame. */
struct Reply
{
    Status status = Status::Ok;
    std::uint32_t seq = 0;
    /** Lookup hit only: the memoized result. */
    std::uint64_t data = 0;
    /** Simulated memo-path cycles charged to this request (CRC feed +
     * LUT probe latencies; 0 for non-memo requests). */
    std::uint32_t simCycles = 0;
    /** Stats/Run/Error payload (JSON or a message). */
    std::string text;
};

/** Frames larger than this are a protocol violation (codec refuses to
 * encode, reader treats as a damaged stream). */
constexpr std::size_t maxFrameBytes = 1 << 20;

/** Serialize @p request as one payload (no length prefix). */
std::string encodeRequest(const Request &request);

/** Serialize @p reply as one payload (no length prefix). */
std::string encodeReply(const Reply &reply);

/** Append @p reply to @p out as one length-prefixed frame, so many
 * replies can leave in a single write. */
void appendReplyFrame(std::string *out, const Reply &reply);

/** Parse one request payload. ErrorCode::Config on malformed bytes. */
Expected<Request> decodeRequest(const std::string &payload);

/** Parse one reply payload. ErrorCode::Config on malformed bytes. */
Expected<Reply> decodeReply(const std::string &payload);

/**
 * Write every byte of @p bytes to @p fd (loops over partial writes;
 * EINTR-safe). ErrorCode::Io on a closed or failed stream.
 */
Expected<void> writeAll(int fd, const std::string &bytes);

/** Write one length-prefixed frame to @p fd (see writeAll()). */
Expected<void> writeFrame(int fd, const std::string &payload);

/**
 * Read one length-prefixed frame from @p fd into @p payload (blocking,
 * EINTR-safe). @return false on clean end-of-stream at a frame
 * boundary; ErrorCode::Io on mid-frame EOF, oversized frames, or read
 * failures.
 */
Expected<bool> readFrame(int fd, std::string *payload);

/**
 * Incremental frame splitter for nonblocking readers: append raw bytes
 * with feed(), then drain complete frames with next(). Draining is
 * linear in the bytes fed: next() only advances a read offset, and
 * feed() compacts the consumed prefix once. Oversized length prefixes
 * poison the buffer (damaged() turns true) — the connection should be
 * dropped.
 */
class FrameBuffer
{
  public:
    void feed(const char *bytes, std::size_t n);

    /** Extract the next complete frame payload into @p payload. */
    bool next(std::string *payload);

    bool damaged() const { return damaged_; }
    /** Bytes fed but not yet returned by next(). */
    std::size_t pendingBytes() const { return buffer_.size() - offset_; }

  private:
    std::string buffer_;
    /** Start of the first undecoded byte in buffer_. */
    std::size_t offset_ = 0;
    bool damaged_ = false;
};

} // namespace serve
} // namespace axmemo

#endif // AXMEMO_SERVE_PROTOCOL_HH
