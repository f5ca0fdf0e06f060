#include "core/truncation_tuner.hh"

namespace axmemo {

TruncationTuner::TruncationTuner(const ExperimentConfig &config,
                                 double errorBound)
    : config_(config), errorBound_(errorBound)
{
    // Profiling always runs on the sample input set (Section 5): the
    // evaluation inputs must remain unseen.
    config_.dataset.sampleSet = true;
    // The quality monitor would mask the very errors being measured.
    config_.qualityMonitor = false;
}

std::vector<unsigned>
TruncationTuner::defaultCandidates()
{
    return {0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20};
}

TuningResult
TruncationTuner::tune(Workload &workload,
                      const std::vector<unsigned> &candidates)
{
    TuningResult result;
    for (unsigned bits : candidates) {
        ExperimentConfig config = config_;
        config.truncOverride = static_cast<int>(bits);
        const ExperimentRunner runner(config);
        const Comparison cmp = runner.compare(workload, "axmemo");
        TuningPoint point;
        point.truncBits = bits;
        point.qualityLoss = cmp.qualityLoss;
        point.hitRate = cmp.subject.hitRate();
        point.speedup = cmp.speedup;
        result.sweep.push_back(point);
        if (cmp.qualityLoss > errorBound_)
            break; // error grows monotonically with truncation
    }

    // Among the levels meeting the bound, pick the *least* truncation
    // that achieves (nearly) the best hit rate: truncating deeper than
    // reuse requires only discards precision for nothing.
    double bestHit = 0.0;
    for (const TuningPoint &point : result.sweep) {
        if (point.qualityLoss <= errorBound_)
            bestHit = std::max(bestHit, point.hitRate);
    }
    for (const TuningPoint &point : result.sweep) {
        if (point.qualityLoss <= errorBound_ &&
            point.hitRate >= bestHit - 0.01) {
            result.chosenBits = point.truncBits;
            break;
        }
    }
    return result;
}

} // namespace axmemo
