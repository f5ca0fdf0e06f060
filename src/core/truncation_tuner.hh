/**
 * @file
 * Profile-driven truncation selection (Section 5, "Code Generation").
 *
 * The tuner sweeps uniform truncation levels on the benchmark's *sample*
 * input set (disjoint from the evaluation set) and picks the largest level
 * whose output error stays within the bound — 0.1% in the paper, 1% for
 * image outputs. Workloads ship Table 2's levels as defaults; the tuner
 * regenerates them (`axmemo run table2`) and is the hook for users memoizing
 * their own kernels.
 */

#ifndef AXMEMO_CORE_TRUNCATION_TUNER_HH
#define AXMEMO_CORE_TRUNCATION_TUNER_HH

#include <vector>

#include "core/experiment.hh"

namespace axmemo {

/** One point of the tuning sweep. */
struct TuningPoint
{
    unsigned truncBits = 0;
    double qualityLoss = 0.0;
    double hitRate = 0.0;
    double speedup = 1.0;
};

/** Outcome of a tuning run. */
struct TuningResult
{
    /** Largest truncation meeting the bound. */
    unsigned chosenBits = 0;
    std::vector<TuningPoint> sweep;
};

/** The profile-driven tuner; see file comment. */
class TruncationTuner
{
  public:
    /**
     * @param config experiment configuration; its dataset is switched to
     *        the sample set internally.
     * @param errorBound maximum acceptable quality loss.
     */
    TruncationTuner(const ExperimentConfig &config, double errorBound);

    /** Sweep @p candidates (default 0,2,...,20) and pick. */
    TuningResult
    tune(Workload &workload,
         const std::vector<unsigned> &candidates = defaultCandidates());

    static std::vector<unsigned> defaultCandidates();

  private:
    ExperimentConfig config_;
    double errorBound_;
};

} // namespace axmemo

#endif // AXMEMO_CORE_TRUNCATION_TUNER_HH
