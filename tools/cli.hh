/**
 * @file
 * Table-driven command-line layer of the `axmemo` driver.
 *
 * The driver used to be one 200-line hand-rolled argument loop: every
 * subcommand a bool, every flag an `else if`, the usage text maintained
 * by hand, and a typo answered with a bare "unknown option". This layer
 * replaces it with two tables:
 *
 *  - **The flag table** (flagTable()): one FlagSpec per option — name,
 *    value placeholder, help line, and an apply function writing into
 *    CommonArgs (mostly its RuntimeOptions). Every subcommand parses
 *    from the same table, so `--out/--jobs/--scale/--json` behave
 *    identically everywhere and a new knob is one table row, not four
 *    scattered `else if`s. `--flag value` and `--flag=value` both work.
 *
 *  - **The subcommand table** (SubcommandRegistry): name, one-line
 *    summary, synopsis and a details body per command. `axmemo help`
 *    and `axmemo help <cmd>` are generated from it, and dispatch()
 *    resolves the command word through it.
 *
 * Misspellings of either kind get the same structured treatment as the
 * memo-backend registry (memo/backend.hh): an ErrorCode::Config error
 * naming the input plus a Levenshtein did-you-mean suggestion. Exit
 * code 2 for usage errors is preserved from the hand-rolled parser.
 */

#ifndef AXMEMO_TOOLS_CLI_HH
#define AXMEMO_TOOLS_CLI_HH

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

/** One command-line option. */
struct FlagSpec
{
    const char *name;      ///< "--scale"
    const char *valueName; ///< "<f>"; nullptr = boolean flag
    const char *help;      ///< one-line description
    /** Apply the flag to @p args; @p value is null for boolean flags.
     * @return false with @p *error set on a malformed value. */
    bool (*apply)(CommonArgs &args, const char *value,
                  std::string *error);
};

/** The one flag table every subcommand parses from. */
const std::vector<FlagSpec> &flagTable();

/**
 * Parse argv[@p start ..) against the flag table; positional
 * arguments land in @p args.positional. Unknown flags and malformed
 * values produce an ErrorCode::Config error — unknown flags with the
 * registry-style did-you-mean suggestion.
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
 * the flag table, then the runtime-knob table. */
std::string renderUsage(const SubcommandRegistry &registry);

/** The generated `axmemo help <cmd>` page. */
std::string renderHelp(const Subcommand &command);

/**
 * Full driver entry point: resolve argv[1] through @p registry, parse
 * the remaining arguments through the flag table, freeze the resolved
 * RuntimeOptions, and invoke the subcommand. `help`, `--help`, `-h`
 * and the legacy `--list` spelling are handled here. Usage errors
 * print to stderr and return 2, as the hand-rolled parser did.
 */
int dispatch(int argc, char **argv, const SubcommandRegistry &registry);

} // namespace cli
} // namespace axmemo

#endif // AXMEMO_TOOLS_CLI_HH
