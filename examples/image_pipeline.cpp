/**
 * @file
 * Image-processing scenario: the accuracy/performance dial.
 *
 * Runs the Sobel edge detector under a sweep of input-truncation levels
 * (the knob the ld_crc/reg_crc `n` operand exposes to programmers,
 * Section 4) and prints the resulting hit rate, speedup, energy saving,
 * and output quality — the tradeoff curve an application engineer would
 * consult before shipping an approximate configuration. Ends by running
 * the profile-driven tuner, which picks the level automatically under
 * the 1% image-error bound.
 */

#include <cstdio>

#include "core/axmemo.hh"

int
main()
{
    using namespace axmemo;
    setQuiet(true);

    ExperimentConfig config;
    config.dataset.scale = 0.1;
    config.lut = {8 * 1024, 512 * 1024};

    auto workload = makeWorkload("sobel");
    std::printf("workload: %s — %s\n\n", workload->name().c_str(),
                workload->description().c_str());

    TextTable table;
    table.header({"trunc bits", "hit rate", "speedup", "energy",
                  "quality loss"});

    const RunResult base =
        ExperimentRunner(config).run(*workload, "baseline");

    for (int bits : {0, 4, 8, 12, 16, 20}) {
        ExperimentConfig point = config;
        point.truncOverride = bits;
        const Comparison cmp = ExperimentRunner::score(
            *workload, base,
            ExperimentRunner(point).run(*workload, "axmemo"));
        table.row({std::to_string(bits),
                   TextTable::percent(cmp.subject.hitRate()),
                   TextTable::times(cmp.speedup),
                   TextTable::times(cmp.energyReduction),
                   TextTable::percent(cmp.qualityLoss, 4)});
    }
    std::printf("%s\n", table.render().c_str());

    // Let the compiler's profiler choose (sample inputs, 1% bound).
    ExperimentConfig tunerConfig = config;
    tunerConfig.dataset.scale = 0.03;
    TruncationTuner tuner(tunerConfig, 0.01);
    const TuningResult tuned = tuner.tune(*workload);
    std::printf("tuner choice under 1%% image-error bound: %u bits "
                "(Table 2 ships %u)\n",
                tuned.chosenBits,
                workload->memoSpec().regions.front().truncBits);
    return 0;
}
