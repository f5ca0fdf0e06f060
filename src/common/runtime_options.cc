#include "common/runtime_options.hh"

#include <algorithm>
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

/** A parse rule's rejection; the message says what the rule wants. */
Error
malformed(std::string want)
{
    return Error{ErrorCode::Config, "knob", std::move(want)};
}

/** Store @p parsed in @p field, or pass the rejection on. */
template <typename T, typename Field>
Expected<void>
store(const Expected<T> &parsed, Field &field)
{
    if (!parsed.ok())
        return parsed.error();
    field = parsed.value();
    return {};
}

// The rules knob rows are built from. Each writes only on success.

template <auto Field>
Expected<void>
freeText(RuntimeOptions &options, const char *text)
{
    options.*Field = text;
    return {};
}

template <auto Field>
Expected<void>
positive(RuntimeOptions &options, const char *text)
{
    return store(parsePositiveDouble(text), options.*Field);
}

/** An integer in [Min, Max]; below Min "wants at least Min". */
template <auto Field, unsigned Max, unsigned Min = 0>
Expected<void>
bounded(RuntimeOptions &options, const char *text)
{
    const Expected<unsigned> parsed = parseUnsigned(text, Max);
    if (parsed.ok() && parsed.value() < Min)
        return malformed("at least " + std::to_string(Min));
    return store(parsed, options.*Field);
}

template <auto Field, std::uint64_t Min = 0>
Expected<void>
u64(RuntimeOptions &options, const char *text)
{
    const Expected<std::uint64_t> parsed = parseU64(text);
    if (parsed.ok() && parsed.value() < Min)
        return malformed("at least " + std::to_string(Min));
    return store(parsed, options.*Field);
}

/**
 * A 0/1 switch: "1" sets Field to One, "0" to !One (so "0" is the
 * accepted spelling of the default), and the bare flag to Flag. The
 * flag always stands for the value that is not the default.
 */
template <auto Field, bool One, bool Flag = One>
Expected<void>
flagSwitch(RuntimeOptions &options, const char *text)
{
    if (!text)
        options.*Field = Flag;
    else if (std::strcmp(text, "1") == 0 || std::strcmp(text, "0") == 0)
        options.*Field = (text[0] == '1') == One;
    else
        return malformed("0 or 1");
    return {};
}

/** One of the names in Choices. */
template <auto Field, const auto &Choices>
Expected<void>
choice(RuntimeOptions &options, const char *text)
{
    for (const char *name : Choices) {
        if (std::strcmp(text, name) == 0) {
            options.*Field = name;
            return {};
        }
    }
    std::string want;
    for (const char *name : Choices)
        want += (want.empty() ? "" : " or ") + std::string(name);
    return malformed(want);
}

/** --scale also records that a scale was given. */
Expected<void>
scale(RuntimeOptions &options, const char *text)
{
    Expected<void> stored = positive<&RuntimeOptions::scale>(options, text);
    if (stored.ok())
        options.scaleSet = true;
    return stored;
}

constexpr const char *servePolicies[] = {"partitioned", "shared"};

using R = RuntimeOptions;

const Knob knobs[] = {
    {"AXMEMO_JOBS", "--jobs", "<n>", "0",
     "sweep worker count (0 = hardware threads)",
     bounded<&R::jobs, R::maxJobs>},
    {"AXMEMO_SCALE", "--scale", "<f>", "0.125", "dataset scale factor",
     scale},
    {"AXMEMO_FULL", "--full", nullptr, "0",
     "paper-size inputs (scale 1.0, over any scale)",
     flagSwitch<&R::full, true>},
    {"AXMEMO_SWEEP_DIR", "--out", "<dir>", ".",
     "output directory for reports and manifest", freeText<&R::outDir>},
    {"AXMEMO_RETRIES", "--retries", "<n>", "1",
     "per-job retries after a failure (not timeouts)",
     bounded<&R::retries, R::maxRetries>},
    {"AXMEMO_JOB_TIMEOUT", "--job-timeout", "<s>", "off",
     "per-job watchdog seconds; expired jobs are timed out",
     positive<&R::jobTimeoutSeconds>},
    {"AXMEMO_TIMING", "--no-timing", nullptr, "1",
     "0 zeroes host-timing fields (byte-comparable reports)",
     flagSwitch<&R::reportTiming, true, false>},
    {"AXMEMO_FAULT_INJECT", "--fault-inject", "<w[:n]>", "off",
     "test hook: fail jobs matching <workload>[:<attempts>]",
     freeText<&R::faultInject>},
    {"AXMEMO_NO_BATCH", "--no-batch", nullptr, "0",
     "1 disables basic-block macro-op batching",
     flagSwitch<&R::blockBatch, false>},
    {"AXMEMO_NO_SIMD", "--no-simd", nullptr, "0",
     "1 disables the SSE4.2/PCLMUL CRC kernels",
     flagSwitch<&R::simd, false>},
    {"AXMEMO_SHARD_DIR", "--shard-dir", "<dir>", "off",
     "shared work-queue directory: cooperate with other workers",
     freeText<&R::shardDir>},
    {"AXMEMO_WORKER_ID", "--worker-id", "<s>", "w<pid>",
     "this worker's identity inside the shard directory",
     freeText<&R::workerId>},
    {"AXMEMO_LEASE", "--lease", "<s>", "30",
     "claim lease seconds; a staler claim is stolen",
     positive<&R::leaseSeconds>},
    {"AXMEMO_ISOLATE", "--isolate", nullptr, "0",
     "1 forks every simulated job into a watchdogged child",
     flagSwitch<&R::isolate, true>},
    {"AXMEMO_TIMELINE", "--trace-timeline", "<file>", "off",
     "write a Chrome-trace/Perfetto span timeline", freeText<&R::timeline>},
    {"AXMEMO_SERVE_SOCKET", "--socket", "<path>", "<out>/axmemo.sock",
     "serve/replay: AF_UNIX socket path", freeText<&R::serveSocket>},
    {"AXMEMO_SERVE_POLICY", "--policy", "<p>", "partitioned",
     "serve: tenant->LUT_ID mapping, partitioned or shared",
     choice<&R::servePolicy, servePolicies>},
    {"AXMEMO_SERVE_TENANTS", "--tenants", "<n>", "2",
     "serve: tenants to provision (max 8 partitioned)",
     bounded<&R::serveTenants, R::maxServeTenants, 1>},
    {"AXMEMO_SERVE_QUOTA", "--quota", "<n>", "0",
     "serve: per-tenant LUT entry quota (0 = unlimited)",
     u64<&R::serveQuota>},
    {"AXMEMO_SERVE_LUT", "--lut-bytes", "<n>", "65536",
     "serve: physical LUT size in bytes", u64<&R::serveLutBytes, 1>},
    {"AXMEMO_SERVE_QUEUE", "--queue", "<n>", "1024",
     "serve: bounded Run-queue depth; a full queue sheds Runs",
     bounded<&R::serveQueue, R::maxServeQueue, 1>},
    {"AXMEMO_TRACE_SEED", "--seed", "<n>", "42",
     "replay: request-trace generator seed", u64<&R::traceSeed>},
    {"AXMEMO_TRACE_REQUESTS", "--requests", "<n>", "0",
     "replay: requests to generate (0 = the smoke trace's 4000)",
     u64<&R::traceRequests>},
};

} // namespace

std::span<const Knob>
knobTable()
{
    return knobs;
}

std::string
optionHelpLine(const OptionDoc &doc)
{
    std::string line = "  ";
    line += doc.flag;
    if (doc.valueName)
        line += std::string(" ") + doc.valueName;
    line.resize(std::max<std::size_t>(line.size() + 1, 26), ' ');
    if (doc.env)
        line += doc.env;
    line.resize(std::max<std::size_t>(line.size() + 1, 49), ' ');
    line += doc.help;
    if (doc.defaultText)
        line += std::string(" (default ") + doc.defaultText + ")";
    return line + "\n";
}

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
    for (const Knob &knob : knobTable()) {
        const char *env = std::getenv(knob.env);
        if (!env || !*env)
            continue;
        const Expected<void> applied = knob.rule(options, env);
        if (!applied.ok())
            axm_warn("ignoring malformed ", knob.env, "='", env,
                     "' (want ", applied.error().message, ")");
    }
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

} // namespace axmemo
