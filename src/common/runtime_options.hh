/**
 * @file
 * One struct for every host-side runtime knob, and the one table that
 * declares them.
 *
 * Each knob is one row of knobTable(): its environment variable, its
 * `axmemo` flag, the value placeholder, the default and help text
 * `axmemo help` prints, and one parse rule that checks the text and
 * writes the RuntimeOptions field(s). Everything that reads a knob
 * reads that row: fromEnv() is a loop over the rows (a malformed
 * value warns and keeps the default), the driver's environment pass
 * and flag parser look the same rows up (a malformed value, from
 * either source, is a usage error naming it), and the help listing is
 * rendered from them. A new knob is one row plus its field.
 *
 * The driver freezes its resolved options with setGlobal(); the
 * sweep/artifact APIs take the struct explicitly. Code that still
 * needs ambient access goes through global(), which re-reads the
 * environment until a driver freezes it, so tests that setenv() at
 * runtime keep working.
 *
 * The batch/simd knobs select between bit-identical host data paths
 * (DESIGN.md §10): they change simulation speed, never simulated
 * results, so they are host-side options rather than ExperimentConfig
 * fields and stay out of the canonical manifest serialization. The
 * interpreter's dispatch form is not a knob: it is fixed per build.
 */

#ifndef AXMEMO_COMMON_RUNTIME_OPTIONS_HH
#define AXMEMO_COMMON_RUNTIME_OPTIONS_HH

#include <cstdint>
#include <span>
#include <string>

#include "common/expected.hh"

namespace axmemo {

/**
 * The parse rules of the numeric knobs, which the knob table's rows
 * (and the driver's own numeric flags) are built from. The whole of
 * @p text must parse and lie in range; otherwise the ErrorCode::Config
 * error's message says what the rule wants ("a positive number").
 */
Expected<double> parsePositiveDouble(const char *text);
/** Decimal digits only (no sign, no blanks), value in [0, @p max]. */
Expected<unsigned> parseUnsigned(const char *text, unsigned max);
/** Decimal digits only (no sign, no blanks), no overflow. */
Expected<std::uint64_t> parseU64(const char *text);

/** Every host-side runtime knob; see file comment. */
struct RuntimeOptions
{
    /** Upper bounds of the bounded integer knobs. */
    static constexpr unsigned maxJobs = 1024;
    static constexpr unsigned maxRetries = 64;
    static constexpr unsigned maxServeTenants = 4096;
    static constexpr unsigned maxServeQueue = 1u << 20;

    /** Sweep worker count; 0 = hardware thread count. */
    unsigned jobs = 0;
    /** Dataset scale when scaleSet (AXMEMO_FULL forces 1.0). */
    double scale = 0.0;
    bool scaleSet = false;
    bool full = false;
    /** Output directory for reports/manifest; empty = current dir. */
    std::string outDir;
    /** Per-job retry budget for Failed jobs (not Timeout/Cancelled). */
    unsigned retries = 1;
    /** Per-job watchdog in host seconds; 0 disables the deadline. */
    double jobTimeoutSeconds = 0.0;
    /** When false, host-timing fields in every emitted report are
     * zeroed so two runs of the same sweep are byte-comparable. */
    bool reportTiming = true;
    /** Fault-injection hook "<workload-substring>[:<attempts>]": jobs
     * whose workload matches fail their first <attempts> attempts
     * (default: all attempts). Test/CI use only; empty = off. */
    std::string faultInject;
    /** Basic-block macro-op batching in the simulator inner loop;
     * AXMEMO_NO_BATCH=1 / --no-batch turns it off. */
    bool blockBatch = true;
    /** SIMD CRC kernels (SSE4.2/PCLMUL) when the host supports them;
     * AXMEMO_NO_SIMD=1 / --no-simd forces the portable slice paths. */
    bool simd = true;
    /** Shared work-queue directory (core/shard_queue.hh); empty = the
     * sweep runs single-process with the plain resume journal. */
    std::string shardDir;
    /** Worker identity inside shardDir; empty = "w<pid>" at attach. */
    std::string workerId;
    /** Claim lease window in seconds: a claim whose heartbeat is older
     * than this belongs to a dead worker and may be stolen. */
    double leaseSeconds = 30.0;
    /** Fork each simulated job into a child process so a crash or
     * runaway loop is contained at the process boundary. */
    bool isolate = false;
    /** Chrome-trace/Perfetto timeline output file (obs/telemetry.hh);
     * non-empty arms span recording. Shard workers write per-worker
     * timeline segments instead and `axmemo merge` stitches them into
     * this file. */
    std::string timeline;

    // `axmemo serve` / `axmemo replay` knobs (src/serve). Parsed here
    // so the driver's flag parser has one struct to fill.
    /** AF_UNIX socket path; empty = "<outDir>/axmemo.sock". */
    std::string serveSocket;
    /** Tenant -> LUT_ID mapping: "partitioned" (isolated logical LUT
     * per tenant) or "shared" (one LUT_ID, entries shared). */
    std::string servePolicy = "partitioned";
    /** Tenants the server provisions (max 8 under partitioned). */
    unsigned serveTenants = 2;
    /** Per-tenant LUT entry quota; 0 = unlimited. */
    std::uint64_t serveQuota = 0;
    /** Physical serve LUT size in bytes. */
    std::uint64_t serveLutBytes = 64 * 1024;
    /** Bounded depth of the serve Run queue; a full queue sheds Runs
     * (never blocks the reader). Memo requests never queue. */
    unsigned serveQueue = 1024;
    /** Request-trace seed (replay / serve_traffic artifact). */
    std::uint64_t traceSeed = 42;
    /** Requests to replay; 0 = the smoke spec's default. */
    std::uint64_t traceRequests = 0;

    /** Parse every knob from the environment through the knob table
     * (defensive: a malformed value warns and keeps the default). */
    static RuntimeOptions fromEnv();

    /**
     * The ambient options: the frozen driver copy when setGlobal() has
     * been called, else a fresh fromEnv() parse. Returned by value so
     * un-frozen callers always see the current environment.
     */
    static RuntimeOptions global();

    /** Freeze @p options as the process-wide instance (driver
     * startup; a later call replaces the frozen copy). */
    static void setGlobal(const RuntimeOptions &options);

    /** True once setGlobal() has been called. */
    static bool globalFrozen();

    /** Resolved worker count (jobs, or the hardware thread count). */
    unsigned workerCount() const;

    /** Resolved dataset scale: full -> 1.0, else scale, else fallback. */
    double benchScale(double fallback = 0.125) const;

    /** Fault-injection target split out of faultInject ("" = off). */
    std::string faultWorkload() const;
    /** Number of attempts the injected fault survives (default: all). */
    unsigned faultAttempts() const;

    friend bool operator==(const RuntimeOptions &,
                           const RuntimeOptions &) = default;
};

/**
 * How one option is set and documented: its environment variable, its
 * driver flag and its `axmemo help` line. The knob table's rows and
 * the driver-only rows of tools/cli.cc both start with one.
 */
struct OptionDoc
{
    const char *env;         ///< "AXMEMO_SCALE"; nullptr = flag only
    const char *flag;        ///< "--scale"
    const char *valueName;   ///< "<f>"; nullptr = a switch (no value)
    const char *defaultText; ///< as help prints it; nullptr = none
    const char *help;        ///< one-line description
};

/** @p doc's line of the `axmemo help` listing: flag and value,
 * variable, description and default, in aligned columns. */
std::string optionHelpLine(const OptionDoc &doc);

/**
 * One option: its doc and its parse rule. The rule checks @p text and
 * writes the field(s) of @p target the option sets; null @p text is
 * the bare switch flag. A rejection is an ErrorCode::Config error
 * whose message says what the rule wants ("a positive number"), and
 * writes nothing.
 */
template <typename Target>
struct OptionRow : OptionDoc
{
    Expected<void> (*rule)(Target &target, const char *text);
};

/** One runtime knob: a row of the knob table. */
using Knob = OptionRow<RuntimeOptions>;

/** The knob table: every RuntimeOptions knob, declared once. */
std::span<const Knob> knobTable();

} // namespace axmemo

#endif // AXMEMO_COMMON_RUNTIME_OPTIONS_HH
