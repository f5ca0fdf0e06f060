/**
 * @file
 * Shared plumbing for the table/figure harnesses: the paper's standard
 * LUT configurations (Section 6.1), the benchmark list, and the dataset
 * scale resolved from the environment (AXMEMO_FULL=1 for paper-size
 * inputs, AXMEMO_SCALE=<f> for anything else; default 0.125).
 */

#ifndef AXMEMO_BENCH_BENCH_UTIL_HH
#define AXMEMO_BENCH_BENCH_UTIL_HH

#include <string>
#include <vector>

#include "core/axmemo.hh"

namespace axmemo::bench {

/** The four AxMemo LUT configurations evaluated throughout Section 6. */
inline std::vector<LutSetup>
standardLutConfigs()
{
    return {
        {4 * 1024, 0},
        {8 * 1024, 0},
        {8 * 1024, 256 * 1024},
        {8 * 1024, 512 * 1024},
    };
}

/** The paper's headline configuration: L1 8 KB + L2 512 KB. */
inline LutSetup
bestLutConfig()
{
    return {8 * 1024, 512 * 1024};
}

/** Default experiment configuration at the bench scale. */
inline ExperimentConfig
defaultConfig()
{
    ExperimentConfig config;
    config.dataset.scale = RuntimeOptions::global().benchScale();
    config.lut = bestLutConfig();
    return config;
}

} // namespace axmemo::bench

#endif // AXMEMO_BENCH_BENCH_UTIL_HH
