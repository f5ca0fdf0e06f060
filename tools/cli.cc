#include "tools/cli.hh"

#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/interrupt.hh"
#include "common/log.hh"
#include "memo/backend.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"

namespace axmemo {
namespace cli {

namespace {

bool
fail(std::string *error, std::string message)
{
    *error = std::move(message);
    return false;
}

/** Store @p parsed in @p out, or fail naming @p flag, the knob's parse
 * rule and the rejected @p value. */
template <typename T>
bool
take(const Expected<T> &parsed, T &out, const char *flag,
     const char *value, std::string *error)
{
    if (!parsed.ok())
        return fail(error, std::string(flag) + " wants " +
                               parsed.error().message + " (got '" +
                               value + "')");
    out = parsed.value();
    return true;
}

/** take() for a knob whose rule also excludes 0. */
template <typename T>
bool
takePositive(const Expected<T> &parsed, T &out, const char *flag,
             const char *value, std::string *error)
{
    if (parsed.ok() && parsed.value() == 0)
        return fail(error, std::string(flag) + " wants at least 1 (got '" +
                               value + "')");
    return take(parsed, out, flag, value, error);
}

} // namespace

const std::vector<FlagSpec> &
flagTable()
{
    // One row per option; RuntimeOptions::describeKnobs() documents the
    // knob-backed ones in detail, so help lines here stay short.
    static const std::vector<FlagSpec> table = {
        {"--scale", "<f>", "dataset scale factor",
         +[](CommonArgs &a, const char *v, std::string *error) {
             if (!take(parsePositiveDouble(v), a.runtime.scale,
                       "--scale", v, error))
                 return false;
             a.runtime.scaleSet = true;
             return true;
         }},
        {"--full", nullptr, "paper-size inputs (scale 1.0)",
         +[](CommonArgs &a, const char *, std::string *) {
             a.runtime.full = true;
             return true;
         }},
        {"--jobs", "<n>", "sweep worker count",
         +[](CommonArgs &a, const char *v, std::string *error) {
             return take(parseUnsigned(v, RuntimeOptions::maxJobs),
                         a.runtime.jobs, "--jobs", v, error);
         }},
        {"--out", "<dir>", "output directory for emitted files",
         +[](CommonArgs &a, const char *v, std::string *) {
             a.runtime.outDir = v;
             return true;
         }},
        {"--json", nullptr, "machine-readable stdout",
         +[](CommonArgs &a, const char *, std::string *) {
             a.json = true;
             return true;
         }},
        {"--resume", nullptr, "replay checkpoint journals (run/profile)",
         +[](CommonArgs &a, const char *, std::string *) {
             a.resume = true;
             return true;
         }},
        {"--retries", "<n>", "per-job retries after a failure",
         +[](CommonArgs &a, const char *v, std::string *error) {
             return take(parseUnsigned(v, RuntimeOptions::maxRetries),
                         a.runtime.retries, "--retries", v, error);
         }},
        {"--job-timeout", "<s>", "per-job watchdog seconds",
         +[](CommonArgs &a, const char *v, std::string *error) {
             return take(parsePositiveDouble(v),
                         a.runtime.jobTimeoutSeconds, "--job-timeout", v,
                         error);
         }},
        {"--no-timing", nullptr,
         "zero host-timing fields (byte-comparable reports)",
         +[](CommonArgs &a, const char *, std::string *) {
             a.runtime.reportTiming = false;
             return true;
         }},
        {"--fault-inject", "<w[:n]>", "test hook: fail matching jobs",
         +[](CommonArgs &a, const char *v, std::string *) {
             a.runtime.faultInject = v;
             return true;
         }},
        {"--isolate", nullptr, "fork every simulated job into a child",
         +[](CommonArgs &a, const char *, std::string *) {
             a.runtime.isolate = true;
             return true;
         }},
        {"--no-batch", nullptr, "disable basic-block macro-op batching",
         +[](CommonArgs &a, const char *, std::string *) {
             a.runtime.blockBatch = false;
             return true;
         }},
        {"--no-simd", nullptr, "disable the SIMD CRC kernels",
         +[](CommonArgs &a, const char *, std::string *) {
             a.runtime.simd = false;
             return true;
         }},
        {"--shard-dir", "<dir>", "shared work-queue directory",
         +[](CommonArgs &a, const char *v, std::string *) {
             a.runtime.shardDir = v;
             return true;
         }},
        {"--worker-id", "<s>", "shard worker identity",
         +[](CommonArgs &a, const char *v, std::string *) {
             a.runtime.workerId = v;
             return true;
         }},
        {"--lease", "<s>", "shard claim lease window seconds",
         +[](CommonArgs &a, const char *v, std::string *error) {
             return take(parsePositiveDouble(v), a.runtime.leaseSeconds,
                         "--lease", v, error);
         }},
        {"--workers", "<n>", "fork <n> local shard workers, then merge",
         +[](CommonArgs &a, const char *v, std::string *error) {
             return take(parseUnsigned(v, RuntimeOptions::maxJobs),
                         a.fanout, "--workers", v, error);
         }},
        {"--watch", "<s>", "status: re-render every <s> seconds",
         +[](CommonArgs &a, const char *v, std::string *error) {
             return take(parsePositiveDouble(v), a.watchSeconds,
                         "--watch", v, error);
         }},
        {"--debug-flags", "<spec>",
         "trace flags: Exec,Memo,Cache,Dram,Lut,Sweep,Host|All",
         +[](CommonArgs &, const char *v, std::string *error) {
             std::string why;
             if (!trace::enableFlags(v, &why))
                 return fail(error, "--debug-flags: " + why);
             return true;
         }},
        {"--trace-out", "<file>", "write trace lines to <file>",
         +[](CommonArgs &a, const char *v, std::string *) {
             a.traceOut = v;
             return true;
         }},
        {"--trace-timeline", "<file>",
         "write a Chrome-trace/Perfetto span timeline",
         +[](CommonArgs &a, const char *v, std::string *) {
             a.runtime.timeline = v;
             return true;
         }},
        {"--socket", "<path>", "serve/replay: AF_UNIX socket path",
         +[](CommonArgs &a, const char *v, std::string *) {
             a.runtime.serveSocket = v;
             return true;
         }},
        {"--policy", "<p>", "serve: tenant policy partitioned|shared",
         +[](CommonArgs &a, const char *v, std::string *error) {
             if (std::strcmp(v, "partitioned") != 0 &&
                 std::strcmp(v, "shared") != 0)
                 return fail(error,
                             std::string("--policy wants partitioned "
                                         "or shared (got '") +
                                 v + "')");
             a.runtime.servePolicy = v;
             return true;
         }},
        {"--tenants", "<n>", "serve: tenants to provision",
         +[](CommonArgs &a, const char *v, std::string *error) {
             return takePositive(
                 parseUnsigned(v, RuntimeOptions::maxServeTenants),
                 a.runtime.serveTenants, "--tenants", v, error);
         }},
        {"--quota", "<n>", "serve: per-tenant LUT entry quota (0 = off)",
         +[](CommonArgs &a, const char *v, std::string *error) {
             return take(parseU64(v), a.runtime.serveQuota, "--quota", v,
                         error);
         }},
        {"--lut-bytes", "<n>", "serve: physical LUT size in bytes",
         +[](CommonArgs &a, const char *v, std::string *error) {
             return takePositive(parseU64(v), a.runtime.serveLutBytes,
                                 "--lut-bytes", v, error);
         }},
        {"--queue", "<n>", "serve: bounded Run-queue depth",
         +[](CommonArgs &a, const char *v, std::string *error) {
             return takePositive(
                 parseUnsigned(v, RuntimeOptions::maxServeQueue),
                 a.runtime.serveQueue, "--queue", v, error);
         }},
        {"--seed", "<n>", "replay: request-trace generator seed",
         +[](CommonArgs &a, const char *v, std::string *error) {
             return take(parseU64(v), a.runtime.traceSeed, "--seed", v,
                         error);
         }},
        {"--requests", "<n>", "replay: requests to generate (0 = default)",
         +[](CommonArgs &a, const char *v, std::string *error) {
             return take(parseU64(v), a.runtime.traceRequests,
                         "--requests", v, error);
         }},
        {"--drain", nullptr, "replay: send a Drain after the trace",
         +[](CommonArgs &a, const char *, std::string *) {
             a.drain = true;
             return true;
         }},
    };
    return table;
}

Expected<void>
parseArgs(int argc, char **argv, int start, CommonArgs &args)
{
    const std::vector<FlagSpec> &table = flagTable();
    for (int i = start; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.size() < 2 || arg[0] != '-') {
            args.positional.push_back(arg);
            continue;
        }

        // "--flag=value" and "--flag value" both work for every flag.
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        const FlagSpec *spec = nullptr;
        for (const FlagSpec &candidate : table)
            if (name == candidate.name) {
                spec = &candidate;
                break;
            }
        if (!spec) {
            std::string message = "unknown option '" + name + "'";
            std::vector<std::string> names;
            names.reserve(table.size());
            for (const FlagSpec &candidate : table)
                names.push_back(candidate.name);
            const std::string best = suggestClosest(name, names);
            if (!best.empty())
                message += " (did you mean '" + best + "'?)";
            return Error{ErrorCode::Config, "cli", message};
        }

        const char *value = nullptr;
        if (spec->valueName) {
            if (eq != std::string::npos) {
                value = argv[i] + eq + 1;
            } else if (i + 1 < argc) {
                value = argv[++i];
            } else {
                return Error{ErrorCode::Config, "cli",
                             "option " + name + " needs a value " +
                                 spec->valueName};
            }
        } else if (eq != std::string::npos) {
            return Error{ErrorCode::Config, "cli",
                         "option " + name + " takes no value"};
        }

        std::string error;
        if (!spec->apply(args, value, &error))
            return Error{ErrorCode::Config, "cli", error};
    }
    return {};
}

void
SubcommandRegistry::add(Subcommand command)
{
    commands_.push_back(std::move(command));
}

Expected<const Subcommand *>
SubcommandRegistry::resolve(const std::string &name) const
{
    for (const Subcommand &command : commands_)
        if (command.name == name)
            return &command;

    std::string message = "unknown command '" + name + "'";
    std::vector<std::string> names;
    names.reserve(commands_.size() + 1);
    for (const Subcommand &command : commands_)
        names.push_back(command.name);
    names.push_back("help"); // handled by dispatch(), not a table row
    const std::string best = suggestClosest(name, names);
    if (!best.empty())
        message += " (did you mean '" + best + "'?)";
    return Error{ErrorCode::Config, "cli", message};
}

std::string
renderUsage(const SubcommandRegistry &registry)
{
    std::ostringstream out;
    out << "usage: axmemo <command> [options]\n\ncommands:\n";
    for (const Subcommand &command : registry.list()) {
        out << "  axmemo " << command.name;
        if (!command.synopsis.empty())
            out << " " << command.synopsis;
        out << "\n      " << command.summary << "\n";
    }
    out << "  axmemo help [<command>]\n      this catalog, or one "
           "command's full page\n";
    out << "\noptions (shared by every command; `axmemo help <cmd>` "
           "lists what applies):\n";
    for (const FlagSpec &flag : flagTable()) {
        std::string head = flag.name;
        if (flag.valueName)
            head += std::string(" ") + flag.valueName;
        out << "  " << head;
        if (head.size() < 22)
            out << std::string(22 - head.size(), ' ');
        out << " " << flag.help << "\n";
    }
    out << "\n" << RuntimeOptions::describeKnobs();
    return out.str();
}

std::string
renderHelp(const Subcommand &command)
{
    std::ostringstream out;
    out << "usage: axmemo " << command.name;
    if (!command.synopsis.empty())
        out << " " << command.synopsis;
    out << "\n\n" << command.summary << "\n";
    if (!command.details.empty())
        out << "\n" << command.details;
    return out.str();
}

int
dispatch(int argc, char **argv, const SubcommandRegistry &registry)
{
    if (argc < 2) {
        std::fputs(renderUsage(registry).c_str(), stderr);
        return 2;
    }

    std::string name = argv[1];
    if (name == "--help" || name == "-h" || name == "help") {
        if (name == "help" && argc >= 3) {
            const Expected<const Subcommand *> resolved =
                registry.resolve(argv[2]);
            if (!resolved.ok()) {
                std::fprintf(stderr, "%s\n",
                             resolved.error().message.c_str());
                return 2;
            }
            std::fputs(renderHelp(*resolved.value()).c_str(), stdout);
            return 0;
        }
        std::fputs(renderUsage(registry).c_str(), stdout);
        return 0;
    }
    if (name == "--list") // legacy spelling of `axmemo list`
        name = "list";

    const Expected<const Subcommand *> resolved =
        registry.resolve(name);
    if (!resolved.ok()) {
        std::fprintf(stderr,
                     "%s (run `axmemo help` for the catalog)\n",
                     resolved.error().message.c_str());
        return 2;
    }

    CommonArgs args;
    args.runtime = RuntimeOptions::fromEnv();
    const Expected<void> parsed = parseArgs(argc, argv, 2, args);
    if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.error().message.c_str());
        return 2;
    }

    // Freeze the resolved knobs as the process-wide options: ambient
    // RuntimeOptions::global() callers now see CLI overrides too.
    RuntimeOptions::setGlobal(args.runtime);
    installSignalHandlers();

    trace::initFromEnv();
    if (!args.traceOut.empty() &&
        !trace::openTraceFile(args.traceOut)) {
        std::fprintf(stderr, "cannot open trace file '%s'\n",
                     args.traceOut.c_str());
        return 2;
    }
    telemetry::setEnabled(!args.runtime.timeline.empty());

    return resolved.value()->entry(args);
}

} // namespace cli
} // namespace axmemo
