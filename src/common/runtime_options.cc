#include "common/runtime_options.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/log.hh"

namespace axmemo {

namespace {

/** The frozen driver copy; null until setGlobal(). */
RuntimeOptions *frozen = nullptr;

const char *
envOrNull(const char *name)
{
    const char *value = std::getenv(name);
    return value && *value ? value : nullptr;
}

/** A parse rule's rejection; the message says what the rule wants. */
Error
malformed(std::string want)
{
    return Error{ErrorCode::Config, "knob", std::move(want)};
}

/** Apply one env knob through its parse rule; warn and keep the
 * default on malformed text. */
template <typename T>
bool
envKnob(const char *name, const char *text, const Expected<T> &parsed,
        T &out)
{
    if (parsed.ok()) {
        out = parsed.value();
        return true;
    }
    axm_warn("ignoring malformed ", name, "='", text, "' (want ",
             parsed.error().message, ")");
    return false;
}

} // namespace

Expected<double>
parsePositiveDouble(const char *text)
{
    char *end = nullptr;
    const double parsed = std::strtod(text, &end);
    if (end != text && *end == '\0' && parsed > 0.0 &&
        std::isfinite(parsed))
        return parsed;
    return malformed("a positive number");
}

Expected<unsigned>
parseUnsigned(const char *text, unsigned max)
{
    // strtoul would take leading blanks and a sign ("-1" wraps to
    // ULONG_MAX), so the text must start with a digit.
    if (std::isdigit(static_cast<unsigned char>(text[0]))) {
        char *end = nullptr;
        errno = 0;
        const unsigned long parsed = std::strtoul(text, &end, 10);
        if (*end == '\0' && errno == 0 && parsed <= max)
            return static_cast<unsigned>(parsed);
    }
    return malformed("an integer in [0, " + std::to_string(max) + "]");
}

Expected<std::uint64_t>
parseU64(const char *text)
{
    if (std::isdigit(static_cast<unsigned char>(text[0]))) {
        char *end = nullptr;
        errno = 0;
        const unsigned long long parsed = std::strtoull(text, &end, 10);
        if (*end == '\0' && errno == 0)
            return static_cast<std::uint64_t>(parsed);
    }
    return malformed("a non-negative integer");
}

RuntimeOptions
RuntimeOptions::fromEnv()
{
    RuntimeOptions options;

    if (const char *env = envOrNull("AXMEMO_JOBS"))
        envKnob("AXMEMO_JOBS", env, parseUnsigned(env, maxJobs),
                options.jobs);

    // AXMEMO_FULL must be exactly "1" ("10", "1x", ... are mistakes,
    // not requests for full scale) and anything but "", "0", "1" is
    // warned about instead of silently ignored.
    if (const char *env = envOrNull("AXMEMO_FULL")) {
        if (std::strcmp(env, "1") == 0)
            options.full = true;
        else if (std::strcmp(env, "0") != 0)
            axm_warn("ignoring malformed AXMEMO_FULL='", env,
                     "' (want 0 or 1)");
    }
    if (const char *env = envOrNull("AXMEMO_SCALE"))
        options.scaleSet = envKnob("AXMEMO_SCALE", env,
                                   parsePositiveDouble(env), options.scale);

    if (const char *env = envOrNull("AXMEMO_SWEEP_DIR"))
        options.outDir = env;

    if (const char *env = envOrNull("AXMEMO_RETRIES"))
        envKnob("AXMEMO_RETRIES", env, parseUnsigned(env, maxRetries),
                options.retries);
    if (const char *env = envOrNull("AXMEMO_JOB_TIMEOUT"))
        envKnob("AXMEMO_JOB_TIMEOUT", env, parsePositiveDouble(env),
                options.jobTimeoutSeconds);

    if (const char *env = std::getenv("AXMEMO_TIMING");
        env && std::strcmp(env, "0") == 0)
        options.reportTiming = false;
    if (const char *env = envOrNull("AXMEMO_FAULT_INJECT"))
        options.faultInject = env;

    if (const char *env = envOrNull("AXMEMO_NO_BATCH")) {
        if (std::strcmp(env, "1") == 0)
            options.blockBatch = false;
        else if (std::strcmp(env, "0") != 0)
            axm_warn("ignoring malformed AXMEMO_NO_BATCH='", env,
                     "' (want 0 or 1)");
    }
    if (const char *env = envOrNull("AXMEMO_NO_SIMD")) {
        if (std::strcmp(env, "1") == 0)
            options.simd = false;
        else if (std::strcmp(env, "0") != 0)
            axm_warn("ignoring malformed AXMEMO_NO_SIMD='", env,
                     "' (want 0 or 1)");
    }

    if (const char *env = envOrNull("AXMEMO_SHARD_DIR"))
        options.shardDir = env;
    if (const char *env = envOrNull("AXMEMO_WORKER_ID"))
        options.workerId = env;
    if (const char *env = envOrNull("AXMEMO_LEASE"))
        envKnob("AXMEMO_LEASE", env, parsePositiveDouble(env),
                options.leaseSeconds);
    if (const char *env = envOrNull("AXMEMO_ISOLATE")) {
        if (std::strcmp(env, "1") == 0)
            options.isolate = true;
        else if (std::strcmp(env, "0") != 0)
            axm_warn("ignoring malformed AXMEMO_ISOLATE='", env,
                     "' (want 0 or 1)");
    }
    if (const char *env = envOrNull("AXMEMO_TIMELINE"))
        options.timeline = env;

    if (const char *env = envOrNull("AXMEMO_SERVE_SOCKET"))
        options.serveSocket = env;
    if (const char *env = envOrNull("AXMEMO_SERVE_POLICY")) {
        if (std::strcmp(env, "shared") == 0 ||
            std::strcmp(env, "partitioned") == 0)
            options.servePolicy = env;
        else
            axm_warn("ignoring malformed AXMEMO_SERVE_POLICY='", env,
                     "' (want shared or partitioned)");
    }
    if (const char *env = envOrNull("AXMEMO_SERVE_TENANTS")) {
        unsigned tenants = 0;
        if (envKnob("AXMEMO_SERVE_TENANTS", env,
                    parseUnsigned(env, maxServeTenants), tenants) &&
            tenants > 0)
            options.serveTenants = tenants;
    }
    if (const char *env = envOrNull("AXMEMO_SERVE_QUOTA"))
        envKnob("AXMEMO_SERVE_QUOTA", env, parseU64(env),
                options.serveQuota);
    if (const char *env = envOrNull("AXMEMO_SERVE_LUT")) {
        std::uint64_t bytes = 0;
        if (envKnob("AXMEMO_SERVE_LUT", env, parseU64(env), bytes) &&
            bytes > 0)
            options.serveLutBytes = bytes;
    }
    if (const char *env = envOrNull("AXMEMO_SERVE_QUEUE")) {
        unsigned depth = 0;
        if (envKnob("AXMEMO_SERVE_QUEUE", env,
                    parseUnsigned(env, maxServeQueue), depth) &&
            depth > 0)
            options.serveQueue = depth;
    }
    if (const char *env = envOrNull("AXMEMO_TRACE_SEED"))
        envKnob("AXMEMO_TRACE_SEED", env, parseU64(env),
                options.traceSeed);
    if (const char *env = envOrNull("AXMEMO_TRACE_REQUESTS"))
        envKnob("AXMEMO_TRACE_REQUESTS", env, parseU64(env),
                options.traceRequests);

    return options;
}

RuntimeOptions
RuntimeOptions::global()
{
    if (frozen)
        return *frozen;
    return fromEnv();
}

void
RuntimeOptions::setGlobal(const RuntimeOptions &options)
{
    if (!frozen)
        frozen = new RuntimeOptions;
    *frozen = options;
}

bool
RuntimeOptions::globalFrozen()
{
    return frozen != nullptr;
}

unsigned
RuntimeOptions::workerCount() const
{
    if (jobs > 0)
        return jobs;
    return std::max(1u, std::thread::hardware_concurrency());
}

double
RuntimeOptions::benchScale(double fallback) const
{
    if (full)
        return 1.0;
    if (scaleSet)
        return scale;
    return fallback;
}

std::string
RuntimeOptions::faultWorkload() const
{
    const std::size_t colon = faultInject.find(':');
    return faultInject.substr(0, colon);
}

unsigned
RuntimeOptions::faultAttempts() const
{
    const std::size_t colon = faultInject.find(':');
    if (colon == std::string::npos)
        return ~0u;
    const std::string count = faultInject.substr(colon + 1);
    char *end = nullptr;
    const unsigned long parsed = std::strtoul(count.c_str(), &end, 10);
    if (end == count.c_str() || *end != '\0')
        return ~0u;
    return static_cast<unsigned>(parsed);
}

std::string
RuntimeOptions::describeKnobs()
{
    return "runtime knobs (environment variable / driver flag / "
           "default):\n"
           "  AXMEMO_JOBS         --jobs <n>         hardware threads  "
           "sweep worker count (0 = hardware threads)\n"
           "  AXMEMO_SCALE        --scale <f>        0.125             "
           "dataset scale factor\n"
           "  AXMEMO_FULL         --full             0                 "
           "paper-size inputs (forces scale 1.0)\n"
           "  AXMEMO_SWEEP_DIR    --out <dir>        .                 "
           "output directory for reports and manifest\n"
           "  AXMEMO_DEBUG        --debug-flags <s>  (off)             "
           "trace flags: Exec,Memo,Cache,Dram,Lut,Sweep,Host|All\n"
           "  AXMEMO_RETRIES      --retries <n>      1                 "
           "per-job retries after a failure (not timeouts)\n"
           "  AXMEMO_JOB_TIMEOUT  --job-timeout <s>  0 (off)           "
           "per-job watchdog; expired jobs are marked timed-out\n"
           "  AXMEMO_TIMING       --no-timing        1                 "
           "0 zeroes host-timing fields in every report\n"
           "  AXMEMO_FAULT_INJECT --fault-inject <s> (off)             "
           "test hook: fail jobs matching <workload>[:<attempts>]\n"
           "  AXMEMO_NO_BATCH     --no-batch         0                 "
           "1 disables basic-block macro-op batching\n"
           "  AXMEMO_NO_SIMD      --no-simd          0                 "
           "1 disables the SSE4.2/PCLMUL CRC kernels\n"
           "  AXMEMO_SHARD_DIR    --shard-dir <d>    (off)             "
           "shared work-queue directory: cooperate with other workers\n"
           "  AXMEMO_WORKER_ID    --worker-id <s>    w<pid>            "
           "this worker's identity inside the shard directory\n"
           "  AXMEMO_LEASE        --lease <s>        30                "
           "claim lease window; stale claims are stolen after this\n"
           "  AXMEMO_ISOLATE      --isolate          0                 "
           "1 forks every simulated job into a watchdogged child\n"
           "  AXMEMO_TIMELINE     --trace-timeline <f> (off)           "
           "write a Chrome-trace/Perfetto span timeline to <f>\n"
           "  AXMEMO_SERVE_SOCKET --socket <path>    <out>/axmemo.sock "
           "AF_UNIX socket the memo server binds / clients dial\n"
           "  AXMEMO_SERVE_POLICY --policy <p>       partitioned       "
           "tenant->LUT_ID mapping: partitioned | shared\n"
           "  AXMEMO_SERVE_TENANTS --tenants <n>     2                 "
           "tenants the server provisions (max 8 partitioned)\n"
           "  AXMEMO_SERVE_QUOTA  --quota <n>        0 (unlimited)     "
           "per-tenant LUT entry quota; excess updates are refused\n"
           "  AXMEMO_SERVE_LUT    --lut-bytes <n>    65536             "
           "physical serve LUT size in bytes\n"
           "  AXMEMO_SERVE_QUEUE  --queue <n>        1024              "
           "bounded Run-queue depth; full queue sheds Runs\n"
           "  AXMEMO_TRACE_SEED   --seed <n>         42                "
           "request-trace generator seed (replay / serve_traffic)\n"
           "  AXMEMO_TRACE_REQUESTS --requests <n>   4000              "
           "requests to replay (0 = the smoke trace default)\n";
}

} // namespace axmemo
