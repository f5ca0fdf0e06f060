/**
 * @file
 * Command-line frontend: run any benchmark under any execution mode and
 * configuration, printing the full stats report — the tool for poking
 * at configurations without writing code.
 *
 * Usage:
 *   axmemo_cli [options] <workload>
 *   axmemo_cli --list
 *
 * Options:
 *   --mode <backend>    any registered memoization backend; --list
 *                       prints the catalog (baseline, axmemo,
 *                       axmemo-notrunc, software-lut, atm, iact, ...)
 *   --threshold <f>     iact: relative-error match threshold
 *   --scale <f>         dataset scale (1.0 = paper size; default 0.1)
 *   --l1 <KB>           L1 LUT size in KB (default 8)
 *   --l2 <KB>           L2 LUT size in KB (default 512, 0 disables)
 *   --crc <bits>        CRC width (default 32)
 *   --trunc <n>         override truncation level for every region
 *   --ooo               out-of-order core model
 *   --adaptive          enable the runtime truncation controller
 *   --victim-l2         exclusive (victim) L2 LUT policy
 *   --no-monitor        disable the quality monitor
 *   --compare           also run the baseline and print the comparison
 *   --json              emit machine-readable JSON instead of text
 *   --seed <n>          dataset seed
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/axmemo.hh"
#include "core/json_export.hh"
#include "core/memo_backends.hh"
#include "core/report.hh"

using namespace axmemo;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [options] <workload>\n"
                 "       %s --list\n"
                 "run '%s' with no arguments for the option list in "
                 "the file header\n",
                 argv0, argv0, argv0);
    std::exit(2);
}

std::string
parseMode(const std::string &name)
{
    const Expected<const MemoBackend *> backend =
        memoBackends().resolve(name);
    if (!backend.ok()) {
        std::fprintf(stderr, "%s\n",
                     backend.error().describe().c_str());
        std::exit(2);
    }
    return backend.value()->name();
}

} // namespace

int
main(int argc, char **argv)
{
    ExperimentConfig config;
    config.dataset.scale = 0.1;
    config.lut = {8 * 1024, 512 * 1024};
    std::string backend = "axmemo";
    bool compare = false;
    bool json = false;
    std::string workloadName;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--list") {
            for (const std::string &name : workloadNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (arg == "--mode") {
            backend = parseMode(next());
        } else if (arg == "--threshold") {
            config.iact.threshold = std::atof(next());
        } else if (arg == "--scale") {
            config.dataset.scale = std::atof(next());
        } else if (arg == "--l1") {
            config.lut.l1Bytes = std::strtoull(next(), nullptr, 10) *
                                 1024;
        } else if (arg == "--l2") {
            config.lut.l2Bytes = std::strtoull(next(), nullptr, 10) *
                                 1024;
        } else if (arg == "--crc") {
            config.crcBits =
                static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--trunc") {
            config.truncOverride = std::atoi(next());
        } else if (arg == "--seed") {
            config.dataset.seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--ooo") {
            config.cpu.outOfOrder = true;
        } else if (arg == "--adaptive") {
            config.adaptive.enabled = true;
        } else if (arg == "--victim-l2") {
            config.l2Policy = L2LutPolicy::Victim;
        } else if (arg == "--no-monitor") {
            config.qualityMonitor = false;
        } else if (arg == "--compare") {
            compare = true;
        } else if (arg == "--json") {
            json = true;
        } else if (!arg.empty() && arg[0] == '-') {
            usage(argv[0]);
        } else {
            workloadName = arg;
        }
    }
    if (workloadName.empty())
        usage(argv[0]);

    auto workload = makeWorkload(workloadName);
    const ExperimentRunner runner(config);

    if (json) {
        if (compare && backend != "baseline") {
            const Comparison cmp = runner.compare(*workload, backend);
            std::printf("%s\n",
                        JsonWriter::toJson(cmp, workload->name())
                            .c_str());
        } else {
            const RunResult result = runner.run(*workload, backend);
            std::printf("%s\n", JsonWriter::toJson(result).c_str());
        }
        return 0;
    }

    std::printf("workload: %s — %s\n", workload->name().c_str(),
                workload->description().c_str());
    std::printf("config: %s, CRC%u, scale %.3f, %s core%s%s\n\n",
                config.lut.label().c_str(), config.crcBits,
                config.dataset.scale,
                config.cpu.outOfOrder ? "out-of-order" : "in-order",
                config.adaptive.enabled ? ", adaptive trunc" : "",
                config.l2Policy == L2LutPolicy::Victim
                    ? ", victim L2"
                    : "");

    if (compare && backend != "baseline") {
        const Comparison cmp = runner.compare(*workload, backend);
        std::fputs(formatComparison(cmp, *workload).c_str(), stdout);
        std::fputs("\n", stdout);
        std::fputs(formatRunReport(cmp.subject, config).c_str(),
                   stdout);
    } else {
        const RunResult result = runner.run(*workload, backend);
        std::fputs(formatRunReport(result, config).c_str(), stdout);
    }
    return 0;
}
