/**
 * @file
 * Table-driven command-line layer of the `axmemo` driver.
 *
 * The driver reads its options from two tables of option rows
 * (common/runtime_options.hh): flag, environment variable, value
 * placeholder, default and help text, and one parse rule.
 *
 *  - **The knob table** (knobTable()) declares every RuntimeOptions
 *    knob. The driver reads it twice: an environment pass, then the
 *    command line on top, so a flag overrides its variable.
 *  - **The driver rows** (driverFlags()) are the seven options that
 *    fill CommonArgs instead: `--json`, `--resume`, `--workers`,
 *    `--watch`, `--debug-flags` (whose variable, AXMEMO_DEBUG, is read
 *    in the same environment pass), `--trace-out` and `--drain`.
 *
 * Every subcommand parses from the same rows, so `--out/--jobs/--scale/
 * --json` behave identically everywhere, `axmemo help` renders one
 * listing from both tables, and a new knob is one table row.
 * `--flag value` and `--flag=value` both work. A value a row's rule
 * rejects, from a flag or from the environment, is a usage error
 * naming its source and the rule: "AXMEMO_SCALE wants a positive
 * number (got 'abc')".
 *
 * **The subcommand table** (SubcommandRegistry) holds name, one-line
 * summary, synopsis and a details body per command. `axmemo help` and
 * `axmemo help <cmd>` are generated from it, and dispatch() resolves
 * the command word through it.
 *
 * Misspellings of either kind get the same structured treatment as the
 * memo-backend registry (memo/backend.hh): an ErrorCode::Config error
 * naming the input plus a Levenshtein did-you-mean suggestion. Usage
 * errors exit 2.
 */

#ifndef AXMEMO_TOOLS_CLI_HH
#define AXMEMO_TOOLS_CLI_HH

#include <span>
#include <string>
#include <vector>

#include "common/expected.hh"
#include "common/runtime_options.hh"

namespace axmemo {
namespace cli {

/** Everything the shared flag parser can fill in. */
struct CommonArgs
{
    /** Environment knobs with the command line layered on top; the
     * driver freezes this as RuntimeOptions::setGlobal after parsing. */
    RuntimeOptions runtime;
    /** Non-flag arguments, in order (artifact names, directories). */
    std::vector<std::string> positional;

    // Driver-local flags that are not RuntimeOptions knobs.
    std::string traceOut; ///< --trace-out
    bool json = false;    ///< --json
    bool resume = false;  ///< --resume (run/profile)
    bool drain = false;   ///< --drain (replay)
    double watchSeconds = 0.0; ///< --watch (status)
    unsigned fanout = 0;       ///< --workers (run)
};

/** A driver-only option: a row that fills CommonArgs. */
using DriverFlag = OptionRow<CommonArgs>;

/** The seven driver-only rows; see file comment. */
std::span<const DriverFlag> driverFlags();

/**
 * Parse argv[@p start ..) against the knob table, then the driver
 * rows; positional arguments land in @p args.positional. Unknown flags
 * and malformed values produce an ErrorCode::Config error — unknown
 * flags with the registry-style did-you-mean suggestion.
 */
Expected<void> parseArgs(int argc, char **argv, int start,
                         CommonArgs &args);

/** One driver subcommand. */
struct Subcommand
{
    std::string name;
    std::string summary;  ///< one line for the catalog
    std::string synopsis; ///< argument synopsis after "axmemo <name>"
    std::string details;  ///< body of `axmemo help <name>`
    int (*entry)(CommonArgs &args);
};

/** The subcommand table; see file comment. */
class SubcommandRegistry
{
  public:
    void add(Subcommand command);

    const std::vector<Subcommand> &list() const { return commands_; }

    /** ErrorCode::Config with a did-you-mean on unknown names. */
    Expected<const Subcommand *> resolve(const std::string &name) const;

  private:
    std::vector<Subcommand> commands_;
};

/** The generated `axmemo help` catalog: synopsis per subcommand, then
 * one option listing rendered from both tables. */
std::string renderUsage(const SubcommandRegistry &registry);

/** The generated `axmemo help <cmd>` page. */
std::string renderHelp(const Subcommand &command);

/**
 * Full driver entry point: resolve argv[1] through @p registry, apply
 * the environment, parse the remaining arguments on top, freeze the
 * resolved RuntimeOptions, and invoke the subcommand. `help`, `--help`, `-h`
 * and the legacy `--list` spelling are handled here. Usage errors
 * print to stderr and return 2, as the hand-rolled parser did.
 */
int dispatch(int argc, char **argv, const SubcommandRegistry &registry);

} // namespace cli
} // namespace axmemo

#endif // AXMEMO_TOOLS_CLI_HH
