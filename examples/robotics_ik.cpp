/**
 * @file
 * Robotics scenario: sizing the memoization hardware for an inverse-
 * kinematics controller.
 *
 * Inversek2j solves two-joint arm IK for a stream of end-effector
 * targets; its memoization working set (distinct truncated (x, y)
 * targets) outgrows a small L1 LUT, which is exactly why AxMemo adds the
 * in-LLC L2 LUT. This example sweeps the LUT hierarchy and reports where
 * the controller's speedup comes from — the capacity curve a system
 * designer would use to choose the Fig. 7 configuration.
 */

#include <cstdio>

#include "core/axmemo.hh"

int
main()
{
    using namespace axmemo;
    setQuiet(true);

    auto workload = makeWorkload("inversek2j");
    std::printf("workload: %s — %s\n", workload->name().c_str(),
                workload->description().c_str());
    std::printf("dataset: %s (encoder-quantized joint angles)\n\n",
                workload->datasetDescription().c_str());

    ExperimentConfig config;
    config.dataset.scale = 0.1;

    const RunResult base =
        ExperimentRunner(config).run(*workload, "baseline");
    std::printf("baseline: %llu cycles, %.2f uJ\n\n",
                static_cast<unsigned long long>(base.stats.cycles),
                base.energyPj() / 1e6);

    TextTable table;
    table.header({"LUT config", "hit rate", "L1 hits", "L2 hits",
                  "speedup", "energy", "added SRAM area"});

    const LutSetup sweeps[] = {
        {2 * 1024, 0},          {4 * 1024, 0},
        {8 * 1024, 0},          {16 * 1024, 0},
        {8 * 1024, 256 * 1024}, {8 * 1024, 512 * 1024},
    };
    for (const LutSetup &lut : sweeps) {
        ExperimentConfig point = config;
        point.lut = lut;
        const RunResult r =
            ExperimentRunner(point).run(*workload, "axmemo");
        const Comparison cmp =
            ExperimentRunner::score(*workload, base, r);
        table.row({lut.label(), TextTable::percent(r.hitRate()),
                   std::to_string(r.stats.memo.l1Hits),
                   std::to_string(r.stats.memo.l2Hits),
                   TextTable::times(cmp.speedup),
                   TextTable::times(cmp.energyReduction),
                   TextTable::num(AreaModel::lutAreaMm2(lut.l1Bytes),
                                  4) +
                       " mm^2"});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("the L2 LUT costs no dedicated SRAM (it lives in spare "
                "LLC ways) yet captures the working set a 8-16KB L1 "
                "cannot — the paper's two-level design point\n");
    return 0;
}
