/**
 * @file
 * Analytical speedup estimation from the DDDG (Fig. 5, step 3): before
 * paying for code generation and cycle simulation, the compiler ranks
 * candidate subgraphs by the speedup memoizing them *could* yield.
 *
 * The model combines three ingredients per unique subgraph:
 *  - coverage: the fraction of total graph weight its instances carry;
 *  - a predicted hit rate from the trace's reuse structure (1 - unique
 *    truncated input patterns / dynamic instances, clipped by LUT
 *    capacity — compulsory misses are unavoidable);
 *  - the residual cost of a memoized invocation (input streaming at the
 *    CRC unit's bandwidth + the lookup latency).
 *
 * Amdahl over the covered fraction gives the estimate. As the paper
 * cautions, DDDG weights ignore superscalar overlap, so the estimate is
 * an upper bound; `axmemo run estimator_validation` measures how it
 * tracks the simulated truth.
 */

#ifndef AXMEMO_COMPILER_SPEEDUP_ESTIMATOR_HH
#define AXMEMO_COMPILER_SPEEDUP_ESTIMATOR_HH

#include <cstdint>

#include "compiler/region_finder.hh"

namespace axmemo {

/** Inputs of the analytic model that are not DDDG-derived. */
struct EstimatorConfig
{
    /** Entries the LUT hierarchy can hold (capacity clip). */
    std::uint64_t lutEntries = 66560; // 8KB L1 + 512KB L2, 4B data
    /** Hit rate predicted for the reuse structure, see predictHitRate. */
    double bytesPerCycle = 4.0; ///< CRC unit input bandwidth
    Cycle lookupLatency = 2;    ///< L1 LUT probe
    Cycle branchOverhead = 2;   ///< br_miss/br + unpack on the hit path
};

/** Per-subgraph estimate. */
struct SubgraphEstimate
{
    /** Weight-fraction of the whole graph this subgraph covers. */
    double coverage = 0.0;
    /** Predicted lookup hit rate. */
    double hitRate = 0.0;
    /** Average weight of one instance (the work a hit eliminates). */
    double instanceWeight = 0.0;
    /** Residual cycles a memoized invocation still costs. */
    double residualCycles = 0.0;
    /** Amdahl-combined whole-program speedup if only this is memoized. */
    double speedup = 1.0;
};

/** The analytic model; see file comment. */
class SpeedupEstimator
{
  public:
    explicit SpeedupEstimator(const EstimatorConfig &config = {});

    /**
     * Predicted hit rate when @p uniquePatterns distinct (truncated)
     * input patterns recur across @p instances invocations on a LUT of
     * the configured capacity: reuse minus compulsory misses, zero when
     * the pattern set overflows the LUT (LRU streaming).
     */
    double predictHitRate(std::uint64_t uniquePatterns,
                          std::uint64_t instances) const;

    /** Estimate one unique subgraph against its graph's total weight. */
    SubgraphEstimate estimate(const UniqueSubgraph &subgraph,
                              std::uint64_t totalGraphWeight,
                              std::uint64_t uniquePatterns) const;

    /**
     * Whole-program estimate for memoizing every unique subgraph of
     * @p analysis, assuming the trace's dynamic-count-weighted reuse.
     * @p uniquePatternsHint supplies distinct-input counts per unique
     * subgraph (same order); pass empty to assume the dedup counts
     * (each unique subgraph's instances all share one pattern family).
     */
    double estimateProgram(const RegionAnalysis &analysis,
                           std::uint64_t totalGraphWeight,
                           const std::vector<std::uint64_t>
                               &uniquePatternsHint = {}) const;

  private:
    EstimatorConfig config_;
};

} // namespace axmemo

#endif // AXMEMO_COMPILER_SPEEDUP_ESTIMATOR_HH
