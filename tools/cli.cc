#include "tools/cli.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/interrupt.hh"
#include "common/log.hh"
#include "memo/backend.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"

namespace axmemo {
namespace cli {

namespace {

const DriverFlag driverRows[] = {
    {nullptr, "--json", nullptr, nullptr, "machine-readable stdout",
     +[](CommonArgs &a, const char *) -> Expected<void> {
         a.json = true;
         return {};
     }},
    {nullptr, "--resume", nullptr, nullptr,
     "replay checkpoint journals (run/profile)",
     +[](CommonArgs &a, const char *) -> Expected<void> {
         a.resume = true;
         return {};
     }},
    {nullptr, "--workers", "<n>", nullptr,
     "run: fork <n> local shard workers, then merge",
     +[](CommonArgs &a, const char *v) -> Expected<void> {
         const Expected<unsigned> n =
             parseUnsigned(v, RuntimeOptions::maxJobs);
         if (!n.ok())
             return n.error();
         a.fanout = n.value();
         return {};
     }},
    {nullptr, "--watch", "<s>", nullptr,
     "status: re-render every <s> seconds",
     +[](CommonArgs &a, const char *v) -> Expected<void> {
         const Expected<double> seconds = parsePositiveDouble(v);
         if (!seconds.ok())
             return seconds.error();
         a.watchSeconds = seconds.value();
         return {};
     }},
    {"AXMEMO_DEBUG", "--debug-flags", "<spec>", "off",
     "trace flags: Exec,Memo,Cache,Dram,Lut,Sweep,Host|All",
     +[](CommonArgs &, const char *v) -> Expected<void> {
         if (!trace::enableFlags(v))
             return Error{ErrorCode::Config, "cli",
                          "flags from Exec, Memo, Cache, Dram, Lut, "
                          "Sweep, Host, All"};
         return {};
     }},
    {nullptr, "--trace-out", "<file>", nullptr,
     "write trace lines to <file>",
     +[](CommonArgs &a, const char *v) -> Expected<void> {
         a.traceOut = v;
         return {};
     }},
    {nullptr, "--drain", nullptr, nullptr,
     "replay: send a Drain after the trace",
     +[](CommonArgs &a, const char *) -> Expected<void> {
         a.drain = true;
         return {};
     }},
};

/** Apply @p text, set through @p source (a flag or a variable), with
 * @p row's rule; a rejection names the source and what the rule
 * wants. */
template <typename Target>
Expected<void>
apply(const OptionRow<Target> &row, Target &target, const char *source,
      const char *text)
{
    const Expected<void> applied = row.rule(target, text);
    if (applied.ok())
        return applied;
    return Error{ErrorCode::Config, "cli",
                 std::string(source) + " wants " +
                     applied.error().message + " (got '" +
                     (text ? text : "") + "')"};
}

/** Apply every row of @p rows whose variable is set and not empty. */
template <typename Target>
Expected<void>
applyEnv(std::span<const OptionRow<Target>> rows, Target &target)
{
    for (const OptionRow<Target> &row : rows) {
        const char *text = row.env ? std::getenv(row.env) : nullptr;
        if (!text || !*text)
            continue;
        const Expected<void> applied = apply(row, target, row.env, text);
        if (!applied.ok())
            return applied;
    }
    return {};
}

template <typename Target>
const OptionRow<Target> *
findFlag(std::span<const OptionRow<Target>> rows, const std::string &name)
{
    for (const OptionRow<Target> &row : rows)
        if (name == row.flag)
            return &row;
    return nullptr;
}

/** Apply argv[@p i], the flag of @p row, to @p target; its value comes
 * after the '=' at @p eq, or is the next argument. */
template <typename Target>
Expected<void>
applyFlag(const OptionRow<Target> &row, Target &target, int argc,
          char **argv, int &i, std::size_t eq)
{
    const std::string name = row.flag;
    const char *value = nullptr;
    if (row.valueName) {
        if (eq != std::string::npos)
            value = argv[i] + eq + 1;
        else if (i + 1 < argc)
            value = argv[++i];
        else
            return Error{ErrorCode::Config, "cli",
                         "option " + name + " needs a value " +
                             row.valueName};
    } else if (eq != std::string::npos) {
        return Error{ErrorCode::Config, "cli",
                     "option " + name + " takes no value"};
    }
    return apply(row, target, row.flag, value);
}

} // namespace

std::span<const DriverFlag>
driverFlags()
{
    return driverRows;
}

Expected<void>
parseArgs(int argc, char **argv, int start, CommonArgs &args)
{
    for (int i = start; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.size() < 2 || arg[0] != '-') {
            args.positional.push_back(arg);
            continue;
        }

        // "--flag=value" and "--flag value" both work for every flag.
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        Expected<void> applied;
        if (const Knob *knob = findFlag(knobTable(), name)) {
            applied = applyFlag(*knob, args.runtime, argc, argv, i, eq);
        } else if (const DriverFlag *row = findFlag(driverFlags(), name)) {
            applied = applyFlag(*row, args, argc, argv, i, eq);
        } else {
            std::string message = "unknown option '" + name + "'";
            std::vector<std::string> names;
            for (const Knob &knob : knobTable())
                names.push_back(knob.flag);
            for (const DriverFlag &row : driverFlags())
                names.push_back(row.flag);
            const std::string best = suggestClosest(name, names);
            if (!best.empty())
                message += " (did you mean '" + best + "'?)";
            return Error{ErrorCode::Config, "cli", message};
        }
        if (!applied.ok())
            return applied;
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
           "lists what applies).\nAn AXMEMO_* variable sets an option "
           "from the environment and its flag\noverrides it; a "
           "switch's variable takes 0 or 1, its flag the value that\n"
           "is not the default:\n";
    for (const Knob &knob : knobTable())
        out << optionHelpLine(knob);
    for (const DriverFlag &row : driverFlags())
        out << optionHelpLine(row);
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

    // The environment first, then the command line on top; both read
    // the same rows, so a malformed value is a usage error either way.
    CommonArgs args;
    Expected<void> parsed = applyEnv(knobTable(), args.runtime);
    if (parsed.ok())
        parsed = applyEnv(driverFlags(), args);
    if (parsed.ok())
        parsed = parseArgs(argc, argv, 2, args);
    if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.error().message.c_str());
        return 2;
    }

    // Freeze the resolved knobs as the process-wide options: ambient
    // RuntimeOptions::global() callers now see CLI overrides too.
    RuntimeOptions::setGlobal(args.runtime);
    installSignalHandlers();

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
