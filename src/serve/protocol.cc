#include "serve/protocol.hh"

#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace axmemo {
namespace serve {

namespace {

void
putU32(std::string *out, std::uint32_t v)
{
    out->push_back(static_cast<char>(v & 0xff));
    out->push_back(static_cast<char>((v >> 8) & 0xff));
    out->push_back(static_cast<char>((v >> 16) & 0xff));
    out->push_back(static_cast<char>((v >> 24) & 0xff));
}

void
putU64(std::string *out, std::uint64_t v)
{
    putU32(out, static_cast<std::uint32_t>(v & 0xffffffffull));
    putU32(out, static_cast<std::uint32_t>(v >> 32));
}

/** Bounds-checked little-endian reader over a payload string. */
class Cursor
{
  public:
    explicit Cursor(const std::string &payload) : payload_(payload) {}

    bool
    u8(std::uint8_t *v)
    {
        if (pos_ + 1 > payload_.size())
            return false;
        *v = static_cast<std::uint8_t>(payload_[pos_++]);
        return true;
    }

    bool
    u16(std::uint16_t *v)
    {
        std::uint8_t lo, hi;
        if (!u8(&lo) || !u8(&hi))
            return false;
        *v = static_cast<std::uint16_t>(lo | (hi << 8));
        return true;
    }

    bool
    u32(std::uint32_t *v)
    {
        std::uint16_t lo, hi;
        if (!u16(&lo) || !u16(&hi))
            return false;
        *v = static_cast<std::uint32_t>(lo) |
             (static_cast<std::uint32_t>(hi) << 16);
        return true;
    }

    bool
    u64(std::uint64_t *v)
    {
        std::uint32_t lo, hi;
        if (!u32(&lo) || !u32(&hi))
            return false;
        *v = static_cast<std::uint64_t>(lo) |
             (static_cast<std::uint64_t>(hi) << 32);
        return true;
    }

    bool
    str(std::string *v)
    {
        std::uint32_t len = 0;
        if (!u32(&len) || pos_ + len > payload_.size())
            return false;
        v->assign(payload_, pos_, len);
        pos_ += len;
        return true;
    }

    bool done() const { return pos_ == payload_.size(); }

  private:
    const std::string &payload_;
    std::size_t pos_ = 0;
};

Error
malformed(const char *what)
{
    return Error{ErrorCode::Config, "serve",
                 std::string("malformed frame: ") + what};
}

} // namespace

const char *
opName(Op op)
{
    switch (op) {
    case Op::Lookup:
        return "lookup";
    case Op::Update:
        return "update";
    case Op::Stats:
        return "stats";
    case Op::Run:
        return "run";
    case Op::Drain:
        return "drain";
    }
    return "?";
}

const char *
statusName(Status status)
{
    switch (status) {
    case Status::Ok:
        return "ok";
    case Status::Hit:
        return "hit";
    case Status::Miss:
        return "miss";
    case Status::Shed:
        return "shed";
    case Status::QuotaExceeded:
        return "quota-exceeded";
    case Status::BadRequest:
        return "bad-request";
    case Status::Draining:
        return "draining";
    case Status::Error:
        return "error";
    }
    return "?";
}

std::string
encodeRequest(const Request &request)
{
    std::string out;
    out.reserve(32 + request.text.size());
    out.push_back(static_cast<char>(request.op));
    putU32(&out, request.seq);
    out.push_back(static_cast<char>(request.tenant & 0xff));
    out.push_back(static_cast<char>(request.tenant >> 8));
    out.push_back(static_cast<char>(request.kernel));
    putU64(&out, request.key);
    putU64(&out, request.data);
    putU32(&out, static_cast<std::uint32_t>(request.text.size()));
    out += request.text;
    return out;
}

namespace {

void
putReply(std::string *out, const Reply &reply)
{
    out->push_back(static_cast<char>(reply.status));
    putU32(out, reply.seq);
    putU64(out, reply.data);
    putU32(out, reply.simCycles);
    putU32(out, static_cast<std::uint32_t>(reply.text.size()));
    *out += reply.text;
}

} // namespace

std::string
encodeReply(const Reply &reply)
{
    std::string out;
    out.reserve(32 + reply.text.size());
    putReply(&out, reply);
    return out;
}

void
appendReplyFrame(std::string *out, const Reply &reply)
{
    // Reserve the length prefix, encode in place, then patch it.
    const std::size_t head = out->size();
    putU32(out, 0);
    putReply(out, reply);
    const std::uint32_t length =
        static_cast<std::uint32_t>(out->size() - head - 4);
    for (int i = 0; i < 4; ++i)
        (*out)[head + i] = static_cast<char>((length >> (8 * i)) & 0xff);
}

Expected<Request>
decodeRequest(const std::string &payload)
{
    Cursor c(payload);
    Request request;
    std::uint8_t op = 0;
    if (!c.u8(&op))
        return malformed("truncated op");
    if (op < static_cast<std::uint8_t>(Op::Lookup) ||
        op > static_cast<std::uint8_t>(Op::Drain))
        return malformed("unknown op");
    request.op = static_cast<Op>(op);
    if (!c.u32(&request.seq) || !c.u16(&request.tenant) ||
        !c.u8(&request.kernel) || !c.u64(&request.key) ||
        !c.u64(&request.data) || !c.str(&request.text))
        return malformed("truncated request body");
    if (!c.done())
        return malformed("trailing bytes after request");
    return request;
}

Expected<Reply>
decodeReply(const std::string &payload)
{
    Cursor c(payload);
    Reply reply;
    std::uint8_t status = 0;
    if (!c.u8(&status))
        return malformed("truncated status");
    if (status > static_cast<std::uint8_t>(Status::Error))
        return malformed("unknown status");
    reply.status = static_cast<Status>(status);
    if (!c.u32(&reply.seq) || !c.u64(&reply.data) ||
        !c.u32(&reply.simCycles) || !c.str(&reply.text))
        return malformed("truncated reply body");
    if (!c.done())
        return malformed("trailing bytes after reply");
    return reply;
}

namespace {

Error
ioError(const char *what)
{
    return Error{ErrorCode::Io, "serve",
                 std::string(what) + ": " + std::strerror(errno)};
}

/** Read exactly @p n bytes. 1 = ok, 0 = EOF before the first byte,
 * -1 = failure (errno set or mid-stream EOF as EPIPE). */
int
readAll(int fd, char *buffer, std::size_t n)
{
    std::size_t got = 0;
    while (got < n) {
        const ssize_t r = ::read(fd, buffer + got, n - got);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        if (r == 0) {
            if (got == 0)
                return 0;
            errno = EPIPE;
            return -1;
        }
        got += static_cast<std::size_t>(r);
    }
    return 1;
}

} // namespace

Expected<void>
writeAll(int fd, const std::string &bytes)
{
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t w =
            ::write(fd, bytes.data() + sent, bytes.size() - sent);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return ioError("write");
        }
        sent += static_cast<std::size_t>(w);
    }
    return {};
}

Expected<void>
writeFrame(int fd, const std::string &payload)
{
    if (payload.size() > maxFrameBytes)
        return Error{ErrorCode::Config, "serve", "frame exceeds size cap"};
    std::string framed;
    framed.reserve(4 + payload.size());
    putU32(&framed, static_cast<std::uint32_t>(payload.size()));
    framed += payload;
    return writeAll(fd, framed);
}

Expected<bool>
readFrame(int fd, std::string *payload)
{
    char head[4];
    const int r = readAll(fd, head, sizeof(head));
    if (r == 0)
        return false;
    if (r < 0)
        return Error{ioError("read frame header")};
    std::uint32_t length = 0;
    for (int i = 3; i >= 0; --i)
        length = (length << 8) | static_cast<std::uint8_t>(head[i]);
    if (length > maxFrameBytes)
        return Error{ErrorCode::Io, "serve", "oversized frame"};
    payload->resize(length);
    if (length > 0 && readAll(fd, payload->data(), length) != 1)
        return Error{ioError("read frame body")};
    return true;
}

void
FrameBuffer::feed(const char *bytes, std::size_t n)
{
    if (damaged_)
        return;
    // Drop the frames next() consumed since the last feed in one move.
    buffer_.erase(0, offset_);
    offset_ = 0;
    buffer_.append(bytes, n);
}

bool
FrameBuffer::next(std::string *payload)
{
    if (damaged_ || pendingBytes() < 4)
        return false;
    std::uint32_t length = 0;
    for (int i = 3; i >= 0; --i)
        length = (length << 8) |
                 static_cast<std::uint8_t>(buffer_[offset_ + i]);
    if (length > maxFrameBytes) {
        damaged_ = true;
        return false;
    }
    if (pendingBytes() < 4 + static_cast<std::size_t>(length))
        return false;
    payload->assign(buffer_, offset_ + 4, length);
    offset_ += 4 + static_cast<std::size_t>(length);
    return true;
}

} // namespace serve
} // namespace axmemo
