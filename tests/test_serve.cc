/**
 * @file
 * Serve-mode tests (DESIGN.md §14): the wire codec and frame splitter,
 * TenantTable partitioning/quota semantics, and a full in-process
 * MemoServer round trip over a socketpair — two tenants, quota
 * isolation, pipelined memo batches, Run sessions and Run-queue
 * shedding, stats, drain — plus the replay client driven by a
 * generated request trace.
 */

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/json_value.hh"
#include "serve/protocol.hh"
#include "serve/replay.hh"
#include "serve/server.hh"
#include "serve/tenant_table.hh"
#include "workloads/request_trace.hh"

namespace axmemo {
namespace serve {
namespace {

// ----------------------------------------------------------- protocol

TEST(ServeProtocol, RequestRoundTripsThroughTheCodec)
{
    Request r;
    r.op = Op::Update;
    r.seq = 0xdeadbeef;
    r.tenant = 7;
    r.kernel = 3;
    r.key = 0x0123456789abcdefULL;
    r.data = 0xfedcba9876543210ULL;
    r.text = "payload";

    const Expected<Request> back = decodeRequest(encodeRequest(r));
    ASSERT_TRUE(back.ok()) << back.error().describe();
    EXPECT_EQ(back.value().op, r.op);
    EXPECT_EQ(back.value().seq, r.seq);
    EXPECT_EQ(back.value().tenant, r.tenant);
    EXPECT_EQ(back.value().kernel, r.kernel);
    EXPECT_EQ(back.value().key, r.key);
    EXPECT_EQ(back.value().data, r.data);
    EXPECT_EQ(back.value().text, r.text);
}

TEST(ServeProtocol, ReplyRoundTripsThroughTheCodec)
{
    Reply r;
    r.status = Status::Hit;
    r.seq = 42;
    r.data = 0x1122334455667788ULL;
    r.simCycles = 9;
    r.text = "{\"ok\":true}";

    const Expected<Reply> back = decodeReply(encodeReply(r));
    ASSERT_TRUE(back.ok()) << back.error().describe();
    EXPECT_EQ(back.value().status, r.status);
    EXPECT_EQ(back.value().seq, r.seq);
    EXPECT_EQ(back.value().data, r.data);
    EXPECT_EQ(back.value().simCycles, r.simCycles);
    EXPECT_EQ(back.value().text, r.text);
}

TEST(ServeProtocol, TruncatedPayloadIsRejected)
{
    const std::string whole = encodeRequest(Request{});
    for (std::size_t n = 0; n < whole.size(); ++n)
        EXPECT_FALSE(decodeRequest(whole.substr(0, n)).ok()) << n;
}

/** @p payload behind its u32le length prefix. */
std::string
framed(const std::string &payload)
{
    const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
    std::string out;
    out.push_back(static_cast<char>(n & 0xff));
    out.push_back(static_cast<char>((n >> 8) & 0xff));
    out.push_back(static_cast<char>((n >> 16) & 0xff));
    out.push_back(static_cast<char>((n >> 24) & 0xff));
    return out + payload;
}

TEST(ServeProtocol, ReplyFramesConcatenateIntoOneStream)
{
    Reply hit;
    hit.status = Status::Hit;
    hit.seq = 3;
    hit.data = 99;
    Reply stats;
    stats.seq = 4;
    stats.text = "{\"tenants\":2}";
    std::string stream;
    appendReplyFrame(&stream, hit);
    appendReplyFrame(&stream, stats);
    EXPECT_EQ(stream, framed(encodeReply(hit)) + framed(encodeReply(stats)));
}

TEST(ServeProtocol, FrameBufferSplitsArbitraryChunks)
{
    // Two frames fed one byte at a time must come out intact.
    const std::string a = encodeRequest(Request{});
    Request second;
    second.op = Op::Stats;
    second.seq = 5;
    const std::string b = encodeRequest(second);
    const std::string stream = framed(a) + framed(b);

    FrameBuffer frames;
    std::vector<std::string> out;
    for (char c : stream) {
        frames.feed(&c, 1);
        std::string payload;
        while (frames.next(&payload))
            out.push_back(payload);
    }
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], a);
    EXPECT_EQ(out[1], b);
    EXPECT_FALSE(frames.damaged());
    EXPECT_EQ(frames.pendingBytes(), 0u);
}

TEST(ServeProtocol, FrameBufferDrainsOneLargeChunkInOrder)
{
    // One full 64 KB read's worth of 32-byte request frames, fed at
    // once, plus the first half of one more frame.
    constexpr std::uint32_t count = 2048;
    std::string stream;
    for (std::uint32_t i = 0; i < count; ++i) {
        Request r;
        r.seq = i;
        r.key = 1000 + i;
        stream += framed(encodeRequest(r));
    }
    ASSERT_EQ(stream.size(), 64u * 1024u);
    Request last;
    last.seq = count;
    const std::string tail = framed(encodeRequest(last));
    stream += tail.substr(0, tail.size() / 2);

    FrameBuffer frames;
    frames.feed(stream.data(), stream.size());
    std::string payload;
    for (std::uint32_t i = 0; i < count; ++i) {
        ASSERT_TRUE(frames.next(&payload)) << i;
        const Expected<Request> request = decodeRequest(payload);
        ASSERT_TRUE(request.ok()) << i;
        EXPECT_EQ(request.value().seq, i);
        EXPECT_EQ(request.value().key, 1000u + i);
    }
    EXPECT_FALSE(frames.next(&payload));
    EXPECT_EQ(frames.pendingBytes(), tail.size() / 2);

    // The rest of the split frame completes it.
    frames.feed(tail.data() + tail.size() / 2, tail.size() - tail.size() / 2);
    ASSERT_TRUE(frames.next(&payload));
    EXPECT_EQ(decodeRequest(payload).value().seq, count);
    EXPECT_EQ(frames.pendingBytes(), 0u);
    EXPECT_FALSE(frames.damaged());
}

TEST(ServeProtocol, OversizedLengthPrefixPoisonsTheBuffer)
{
    FrameBuffer frames;
    const char huge[4] = {'\xff', '\xff', '\xff', '\x7f'};
    frames.feed(huge, sizeof(huge));
    std::string payload;
    EXPECT_FALSE(frames.next(&payload));
    EXPECT_TRUE(frames.damaged());
}

// -------------------------------------------------------- tenant table

TenantTableConfig
twoTenantConfig(PartitionPolicy policy, std::uint64_t quota)
{
    TenantTableConfig config;
    config.policy = policy;
    config.lutBytes = 16 * 1024;
    config.tenants.push_back({"alpha", quota});
    config.tenants.push_back({"beta", quota});
    return config;
}

TEST(TenantTable, PartitionedTenantsNeverShareEntries)
{
    TenantTable table(
        twoTenantConfig(PartitionPolicy::Partitioned, 0));
    ASSERT_EQ(table.update(0, 1, 99, 111),
              TenantTable::UpdateOutcome::Stored);
    // Same (kernel, key) from the other tenant: isolated, a miss.
    EXPECT_FALSE(table.lookup(1, 1, 99).hit);
    const TenantTable::LookupResult own = table.lookup(0, 1, 99);
    EXPECT_TRUE(own.hit);
    EXPECT_EQ(own.data, 111u);
    EXPECT_GT(own.cycles, 0u);
}

TEST(TenantTable, SharedPolicyDeduplicatesAcrossTenants)
{
    TenantTable table(twoTenantConfig(PartitionPolicy::Shared, 0));
    ASSERT_EQ(table.update(0, 1, 99, 111),
              TenantTable::UpdateOutcome::Stored);
    const TenantTable::LookupResult other = table.lookup(1, 1, 99);
    EXPECT_TRUE(other.hit);
    EXPECT_EQ(other.data, 111u);
}

TEST(TenantTable, QuotaIsPerTenantAndExact)
{
    TenantTable table(
        twoTenantConfig(PartitionPolicy::Partitioned, 4));
    for (std::uint64_t k = 0; k < 4; ++k)
        ASSERT_EQ(table.update(0, 0, k, k),
                  TenantTable::UpdateOutcome::Stored);
    // Tenant 0 is full; tenant 1's budget is untouched.
    EXPECT_EQ(table.update(0, 0, 100, 1),
              TenantTable::UpdateOutcome::QuotaExceeded);
    EXPECT_EQ(table.update(1, 0, 100, 1),
              TenantTable::UpdateOutcome::Stored);
    EXPECT_EQ(table.stats(0).entries, 4u);
    EXPECT_EQ(table.stats(0).quotaRejects, 1u);
    EXPECT_EQ(table.stats(1).entries, 1u);

    // Invalidation frees the budget again.
    table.invalidateTenant(0);
    EXPECT_EQ(table.stats(0).entries, 0u);
    EXPECT_EQ(table.update(0, 0, 100, 1),
              TenantTable::UpdateOutcome::Stored);
}

// ------------------------------------------------- in-process server

/** Read the next reply from @p fd. */
Reply
readReply(int fd)
{
    std::string payload;
    const Expected<bool> got = readFrame(fd, &payload);
    EXPECT_TRUE(got.ok() && got.value());
    const Expected<Reply> reply = decodeReply(payload);
    EXPECT_TRUE(reply.ok());
    return reply.ok() ? reply.value() : Reply{};
}

/** Socketpair client handle: blocking request/response helper. */
class Client
{
  public:
    explicit Client(MemoServer &server)
    {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        fd_ = fds[0];
        server.attachClient(fds[1]);
    }

    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    Reply
    call(const Request &request)
    {
        const Expected<void> sent =
            writeFrame(fd_, encodeRequest(request));
        EXPECT_TRUE(sent.ok());
        return readReply(fd_);
    }

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
};

Request
memoRequest(Op op, std::uint16_t tenant, std::uint64_t key,
            std::uint64_t data = 0)
{
    static std::uint32_t seq = 0;
    Request r;
    r.op = op;
    r.seq = ++seq;
    r.tenant = tenant;
    r.kernel = 2;
    r.key = key;
    r.data = data;
    return r;
}

TEST(MemoServerTest, TwoTenantRoundTripWithQuotaIsolation)
{
    ServerConfig config;
    config.table = twoTenantConfig(PartitionPolicy::Partitioned, 8);
    MemoServer server(config);
    ASSERT_TRUE(server.start().ok());
    Client client(server);

    // Cold lookup misses; the update fills it; the rerun hits with
    // the memoized value, and the echoed seq correlates each reply.
    Request lookup = memoRequest(Op::Lookup, 0, 77);
    Reply r = client.call(lookup);
    EXPECT_EQ(r.status, Status::Miss);
    EXPECT_EQ(r.seq, lookup.seq);
    EXPECT_GT(r.simCycles, 0u);

    r = client.call(memoRequest(Op::Update, 0, 77, 4242));
    EXPECT_EQ(r.status, Status::Ok);
    r = client.call(memoRequest(Op::Lookup, 0, 77));
    EXPECT_EQ(r.status, Status::Hit);
    EXPECT_EQ(r.data, 4242u);

    // The partitioned twin sees nothing of tenant 0's entry.
    r = client.call(memoRequest(Op::Lookup, 1, 77));
    EXPECT_EQ(r.status, Status::Miss);

    // Fill tenant 1 to quota; the 9th update is refused while
    // tenant 0 keeps inserting — quota is per tenant.
    for (std::uint64_t k = 0; k < 8; ++k)
        EXPECT_EQ(client.call(memoRequest(Op::Update, 1, 1000 + k, k))
                      .status,
                  Status::Ok);
    EXPECT_EQ(client.call(memoRequest(Op::Update, 1, 2000, 1)).status,
              Status::QuotaExceeded);
    EXPECT_EQ(client.call(memoRequest(Op::Update, 0, 2000, 1)).status,
              Status::Ok);

    // Unknown tenants are a BadRequest, not a crash.
    EXPECT_EQ(client.call(memoRequest(Op::Lookup, 9, 1)).status,
              Status::BadRequest);

    // Stats is parseable JSON naming both tenants and the totals.
    Request stats;
    stats.op = Op::Stats;
    stats.seq = 9999;
    r = client.call(stats);
    ASSERT_EQ(r.status, Status::Ok);
    const Expected<JValue> json = parseJsonValue(r.text);
    ASSERT_TRUE(json.ok()) << r.text;
    EXPECT_NE(r.text.find("\"alpha\""), std::string::npos);
    EXPECT_NE(r.text.find("\"beta\""), std::string::npos);
    EXPECT_NE(r.text.find("\"quota_rejects\":1"), std::string::npos)
        << r.text;

    // Drain: acknowledged, then the server settles with every request
    // counted and none shed.
    Request drain;
    drain.op = Op::Drain;
    drain.seq = 10000;
    EXPECT_EQ(client.call(drain).status, Status::Ok);
    server.serveUntilDrained(false);
    EXPECT_TRUE(server.drained());
    EXPECT_EQ(server.totals().sheds, 0u);
    EXPECT_GE(server.totals().requests, 15u);
}

TEST(MemoServerTest, StatsEscapesTenantNames)
{
    const std::string name = "a\"b\\c";
    ServerConfig config;
    config.table.lutBytes = 16 * 1024;
    config.table.tenants.push_back({name, 8});
    MemoServer server(config);
    ASSERT_TRUE(server.start().ok());
    Client client(server);

    Request stats;
    stats.op = Op::Stats;
    stats.seq = 1;
    const Reply r = client.call(stats);
    ASSERT_EQ(r.status, Status::Ok);
    const Expected<JValue> json = parseJsonValue(r.text);
    ASSERT_TRUE(json.ok()) << r.text;
    // The name survives in both places the document carries it.
    const JValue *latency = json.value().find("latency_us");
    ASSERT_NE(latency, nullptr) << r.text;
    EXPECT_NE(latency->find(name), nullptr) << r.text;
    const JValue *table = json.value().find("table");
    ASSERT_NE(table, nullptr) << r.text;
    const JValue *tenants = table->find("tenants");
    ASSERT_NE(tenants, nullptr) << r.text;
    ASSERT_EQ(tenants->elements.size(), 1u) << r.text;
    const JValue *stored = tenants->elements[0].find("name");
    ASSERT_NE(stored, nullptr) << r.text;
    EXPECT_EQ(stored->token, name);
}

TEST(MemoServerTest, DrainingServerRefusesNewRequests)
{
    ServerConfig config;
    config.table = twoTenantConfig(PartitionPolicy::Partitioned, 0);
    MemoServer server(config);
    ASSERT_TRUE(server.start().ok());
    Client client(server);
    ASSERT_EQ(client.call(memoRequest(Op::Lookup, 0, 1)).status,
              Status::Miss);

    server.requestDrain();
    const Reply refused = client.call(memoRequest(Op::Lookup, 0, 2));
    EXPECT_EQ(refused.status, Status::Draining);
    server.serveUntilDrained(false);
    EXPECT_TRUE(server.drained());
    EXPECT_EQ(server.totals().drained, 1u);
}

TEST(MemoServerTest, RunSessionExecutesBetweenMemoTraffic)
{
    ServerConfig config;
    config.table = twoTenantConfig(PartitionPolicy::Partitioned, 0);
    config.runScale = 0.01;
    MemoServer server(config);
    ASSERT_TRUE(server.start().ok());
    Client client(server);

    Request run;
    run.op = Op::Run;
    run.seq = 1;
    run.text = "axmemo:sobel";
    const Reply r = client.call(run);
    ASSERT_EQ(r.status, Status::Ok) << r.text;
    const Expected<JValue> json = parseJsonValue(r.text);
    ASSERT_TRUE(json.ok()) << r.text;
    EXPECT_NE(r.text.find("\"backend\":\"axmemo\""), std::string::npos);
    EXPECT_NE(r.text.find("\"workload\":\"sobel\""), std::string::npos);
    EXPECT_NE(r.text.find("\"cycles\":"), std::string::npos);
    EXPECT_EQ(server.totals().runs, 1u);

    // Malformed run specs are refused without touching the session.
    Request bad;
    bad.op = Op::Run;
    bad.seq = 2;
    bad.text = "no-colon";
    EXPECT_EQ(client.call(bad).status, Status::BadRequest);
    bad.text = "axmemo:not-a-workload";
    EXPECT_EQ(client.call(bad).status, Status::BadRequest);

    server.requestDrain();
    server.serveUntilDrained(false);
}

/** Write all of @p bytes with exactly one write() call. */
void
writeOnce(int fd, const std::string &bytes)
{
    ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
}

TEST(MemoServerTest, PipelinedMemoRequestsAreAnsweredInSendOrder)
{
    ServerConfig config;
    config.table = twoTenantConfig(PartitionPolicy::Partitioned, 0);
    MemoServer server(config);
    ASSERT_TRUE(server.start().ok());
    Client client(server);

    // 250 rounds of four requests, alternating tenants: a cold Lookup,
    // the Update that fills it, a Lookup that hits it, and the same
    // Lookup from the partitioned twin, which misses.
    std::vector<Request> sent;
    std::string stream;
    for (std::uint64_t round = 0; round < 250; ++round) {
        const auto tenant = static_cast<std::uint16_t>(round % 2);
        const std::uint64_t key = 5000 + round;
        for (const Request &r :
             {memoRequest(Op::Lookup, tenant, key),
              memoRequest(Op::Update, tenant, key, key * 7 + tenant),
              memoRequest(Op::Lookup, tenant, key),
              memoRequest(Op::Lookup, 1 - tenant, key)}) {
            sent.push_back(r);
            stream += framed(encodeRequest(r));
        }
    }
    ASSERT_EQ(sent.size(), 1000u);
    writeOnce(client.fd(), stream);

    for (std::size_t i = 0; i < sent.size(); ++i) {
        const Reply r = readReply(client.fd());
        ASSERT_EQ(r.seq, sent[i].seq) << "reply " << i << " out of order";
        switch (i % 4) {
        case 0:
        case 3:
            EXPECT_EQ(r.status, Status::Miss) << i;
            break;
        case 1:
            EXPECT_EQ(r.status, Status::Ok) << i;
            break;
        case 2:
            EXPECT_EQ(r.status, Status::Hit) << i;
            EXPECT_EQ(r.data, sent[i - 1].data) << i;
            break;
        }
    }

    server.requestDrain();
    server.serveUntilDrained(false);
    EXPECT_EQ(server.totals().requests, 1000u);
    EXPECT_EQ(server.totals().sheds, 0u);
}

/** A Run request of @p workload. */
Request
runRequest(std::uint32_t seq, const std::string &workload)
{
    Request r;
    r.op = Op::Run;
    r.seq = seq;
    r.text = "axmemo:" + workload;
    return r;
}

/** A Run scale at which an axmemo kmeans session simulates for tens of
 * milliseconds, far longer than the reader takes to answer a batch of
 * memo requests. */
constexpr double slowRunScale = 0.03;

TEST(MemoServerTest, MemoRequestsDoNotWaitBehindARun)
{
    ServerConfig config;
    config.table = twoTenantConfig(PartitionPolicy::Partitioned, 0);
    config.runScale = slowRunScale;
    MemoServer server(config);
    ASSERT_TRUE(server.start().ok());
    Client client(server);

    std::string stream = framed(encodeRequest(runRequest(1, "kmeans")));
    for (std::uint32_t i = 0; i < 16; ++i) {
        Request lookup = memoRequest(Op::Lookup, 0, i);
        lookup.seq = 100 + i;
        stream += framed(encodeRequest(lookup));
    }
    writeOnce(client.fd(), stream);

    for (std::uint32_t i = 0; i < 16; ++i) {
        const Reply r = readReply(client.fd());
        ASSERT_EQ(r.seq, 100 + i) << "the Run was answered before a Lookup";
        EXPECT_EQ(r.status, Status::Miss);
    }
    const Reply run = readReply(client.fd());
    EXPECT_EQ(run.seq, 1u);
    EXPECT_EQ(run.status, Status::Ok) << run.text;

    server.requestDrain();
    server.serveUntilDrained(false);
    EXPECT_EQ(server.totals().runs, 1u);
}

TEST(MemoServerTest, FullRunQueueShedsAndCountsEveryShed)
{
    ServerConfig config;
    config.table = twoTenantConfig(PartitionPolicy::Partitioned, 0);
    config.runScale = slowRunScale;
    config.queueDepth = 1;
    MemoServer server(config);
    ASSERT_TRUE(server.start().ok());
    Client client(server);

    // Eight slow Runs in one write: one runs, one waits, and at least
    // six find the one-deep queue full.
    constexpr std::uint32_t count = 8;
    std::string stream;
    for (std::uint32_t seq = 1; seq <= count; ++seq)
        stream += framed(encodeRequest(runRequest(seq, "kmeans")));
    writeOnce(client.fd(), stream);

    std::vector<int> replies(count + 1, 0);
    std::uint64_t sheds = 0, ran = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
        const Reply r = readReply(client.fd());
        ASSERT_GE(r.seq, 1u);
        ASSERT_LE(r.seq, count);
        ++replies[r.seq];
        if (r.status == Status::Shed)
            ++sheds;
        else if (r.status == Status::Ok)
            ++ran;
    }
    for (std::uint32_t seq = 1; seq <= count; ++seq)
        EXPECT_EQ(replies[seq], 1) << "seq " << seq;
    EXPECT_GE(sheds, count - 2);
    EXPECT_EQ(sheds + ran, count);

    server.requestDrain();
    server.serveUntilDrained(false);
    EXPECT_EQ(server.totals().sheds, sheds);
    EXPECT_EQ(server.totals().runs, ran);
}

TEST(MemoServerTest, RunReplyToAClosedClientIsDropped)
{
    ServerConfig config;
    config.table = twoTenantConfig(PartitionPolicy::Partitioned, 0);
    config.runScale = slowRunScale;
    MemoServer server(config);
    ASSERT_TRUE(server.start().ok());

    // The first client hangs up with its Run in flight. Its server-side
    // fd is closed and the number is free for the next connection.
    {
        Client first(server);
        writeOnce(first.fd(), framed(encodeRequest(runRequest(1, "kmeans"))));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Client second(server);
    for (int waited = 0; server.totals().runs == 0 && waited < 5000;
         ++waited)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(server.totals().runs, 1u);

    // The second client sees its own reply and nothing else.
    Request lookup = memoRequest(Op::Lookup, 0, 1);
    lookup.seq = 2;
    const Reply r = second.call(lookup);
    EXPECT_EQ(r.seq, 2u);
    EXPECT_EQ(r.status, Status::Miss);
    pollfd pending{second.fd(), POLLIN, 0};
    EXPECT_EQ(::poll(&pending, 1, 50), 0) << "a stray reply arrived";

    server.requestDrain();
    server.serveUntilDrained(false);
}

// ------------------------------------------------------ replay client

TEST(MemoServerTest, ReplayClientReportsPerTenantOutcomes)
{
    ServerConfig config;
    config.table = twoTenantConfig(PartitionPolicy::Partitioned, 0);
    MemoServer server(config);
    ASSERT_TRUE(server.start().ok());

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    server.attachClient(fds[1]);

    RequestTraceSpec spec = RequestTraceSpec::smoke(42);
    spec.requests = 400;
    spec.tenants[0].name = "alpha";
    spec.tenants[1].name = "beta";
    const std::vector<TraceRequest> trace = generateRequestTrace(spec);

    ReplayConfig replayConfig;
    replayConfig.drainAfter = true;
    const Expected<ReplayReport> got =
        replayTrace(fds[0], spec, trace, replayConfig);
    ::close(fds[0]);
    ASSERT_TRUE(got.ok()) << got.error().describe();
    const ReplayReport &report = got.value();

    EXPECT_EQ(report.requests, 400u);
    EXPECT_EQ(report.errors, 0u);
    ASSERT_EQ(report.tenants.size(), 2u);
    std::uint64_t lookups = 0;
    for (const ReplayTenantReport &t : report.tenants) {
        lookups += t.lookups;
        // Every miss was turned into an update (no quota set).
        EXPECT_EQ(t.updates, t.misses);
        EXPECT_EQ(t.quotaRejects, 0u);
    }
    EXPECT_EQ(lookups, 400u);
    // The hot Zipf tenant must see repeats, hence hits.
    EXPECT_GT(report.tenants[0].hits, 0u);
    EXPECT_GE(report.p99Us, report.p50Us);
    EXPECT_NE(report.serverStats.find("\"alpha\""), std::string::npos);

    // drainAfter drained the server; the JSON report is parseable.
    server.serveUntilDrained(false);
    EXPECT_TRUE(server.drained());
    const Expected<JValue> json = parseJsonValue(report.toJson());
    ASSERT_TRUE(json.ok()) << report.toJson();
}

} // namespace
} // namespace serve
} // namespace axmemo
