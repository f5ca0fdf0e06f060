/**
 * @file
 * Quickstart: memoize one benchmark and print the headline numbers.
 *
 * Usage: quickstart [workload] [scale]
 *   workload  one of the ten Table 2 benchmarks (default blackscholes)
 *   scale     dataset scale, 1.0 = paper size (default 0.05)
 */

#include <cstdio>
#include <cstdlib>

#include "core/axmemo.hh"

int
main(int argc, char **argv)
{
    using namespace axmemo;

    const std::string name = argc > 1 ? argv[1] : "blackscholes";
    const double scale = argc > 2 ? std::atof(argv[2]) : 0.05;

    auto workload = makeWorkload(name);

    ExperimentConfig config;
    config.dataset.scale = scale;
    config.lut = {8 * 1024, 512 * 1024}; // the paper's best config

    ExperimentRunner runner(config);
    const Comparison cmp = runner.compare(*workload, "axmemo");

    std::printf("workload       : %s (%s)\n", workload->name().c_str(),
                workload->domain().c_str());
    std::printf("dataset        : %s at scale %.3f\n",
                workload->datasetDescription().c_str(), scale);
    std::printf("LUT config     : %s\n", config.lut.label().c_str());
    std::printf("baseline       : %llu cycles, %llu uops, %.2f uJ\n",
                static_cast<unsigned long long>(
                    cmp.baseline.stats.cycles),
                static_cast<unsigned long long>(cmp.baseline.stats.uops),
                cmp.baseline.energyPj() / 1e6);
    std::printf("axmemo         : %llu cycles, %llu uops, %.2f uJ\n",
                static_cast<unsigned long long>(cmp.subject.stats.cycles),
                static_cast<unsigned long long>(cmp.subject.stats.uops),
                cmp.subject.energyPj() / 1e6);
    std::printf("speedup        : %.2fx\n", cmp.speedup);
    std::printf("energy saving  : %.2fx\n", cmp.energyReduction);
    std::printf("LUT hit rate   : %.1f%% (%llu / %llu lookups)\n",
                100.0 * cmp.subject.hitRate(),
                static_cast<unsigned long long>(cmp.subject.hits),
                static_cast<unsigned long long>(cmp.subject.lookups));
    std::printf("quality loss   : %.4f%%\n", 100.0 * cmp.qualityLoss);
    std::printf("dyn. uops      : %.1f%% of baseline (%.1f%% memo ops)\n",
                100.0 * cmp.normalizedUops, 100.0 * cmp.memoUopShare);
    for (const auto &region : cmp.subject.regions) {
        std::printf("region %d      : lut %u, %u inputs (%u B), "
                    "%u outputs (%u B), %u fused loads\n",
                    region.regionId, region.lut, region.numInputs,
                    region.inputBytes, region.numOutputs,
                    region.outputBytes, region.fusedLoads);
    }
    return 0;
}
