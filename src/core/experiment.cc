#include "core/experiment.hh"

#include <cmath>

#include "common/bits.hh"
#include "common/error_metrics.hh"
#include "common/log.hh"
#include "common/run_control.hh"
#include "core/memo_backends.hh"
#include "obs/span.hh"

namespace axmemo {

ExperimentRunner::ExperimentRunner(const ExperimentConfig &config)
    : config_(config)
{
}

std::uint64_t
digestOutputs(const std::vector<double> &outputs)
{
    // FNV-1a's xor-multiply step, one output word at a time. With an
    // odd prime each step is a bijection of the word and of the state,
    // so changing any single word changes the digest.
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const double value : outputs) {
        hash ^= doubleBits(value);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

RunResult
ExperimentRunner::run(Workload &workload,
                      const std::string &backend) const
{
    SimMemory mem;
    workload.prepare(mem, config_.dataset);
    const Program baselineProg = workload.build();
    return runPrepared(workload, backend, baselineProg, mem);
}

RunSession::RunSession(const ExperimentConfig &config,
                       const Workload &workload,
                       const std::string &backend,
                       const Program &baselineProg, SimMemory &mem,
                       BackendSessionHooks hooks)
    : workload_(workload), mem_(mem), backend_(backend),
      energyModel_(config.energy),
      ctx_{workload, config,     baselineProg, mem,
           simConfig_, energyModel_, hooks}
{
    const Expected<const MemoBackend *> resolved =
        memoBackends().resolve(backend);
    if (!resolved.ok())
        throw AxException(resolved.error());

    simConfig_.cpu = config.cpu;
    simConfig_.hierarchy = config.hierarchy;
    simConfig_.control =
        hooks.control && hooks.control->active() ? hooks.control
                                                 : nullptr;
    session_ = resolved.value()->prepare(ctx_);
}

RunSession::~RunSession() = default;

bool
RunSession::step()
{
    if (ctx_.session.control)
        ctx_.session.control->check("backend");
    if (ctx_.session.spanCategory) {
        AXM_SPAN(ctx_.session.spanCategory, session_->phase());
        return session_->step();
    }
    return session_->step();
}

RunResult
RunSession::finish()
{
    RunResult result;
    result.backend = backend_;
    session_->finish(result);
    result.outputs = workload_.readOutputs(mem_);
    result.outputsDigest = digestOutputs(result.outputs);
    return result;
}

RunResult
ExperimentRunner::runPrepared(const Workload &workload,
                              const std::string &backend,
                              const Program &baselineProg,
                              SimMemory &mem,
                              const RunControl *control) const
{
    RunSession session(config_, workload, backend, baselineProg, mem,
                       BackendSessionHooks{control, nullptr});
    while (session.step()) {
    }
    return session.finish();
}

Comparison
ExperimentRunner::compare(Workload &workload,
                          const std::string &backend) const
{
    return score(workload, run(workload, "baseline"),
                 run(workload, backend));
}

namespace {

/** @p run without its output vector (the digest stays). */
RunResult
withoutOutputs(const RunResult &run)
{
    RunResult copy;
    copy.backend = run.backend;
    copy.stats = run.stats;
    copy.energy = run.energy;
    copy.lookups = run.lookups;
    copy.hits = run.hits;
    copy.outputsDigest = run.outputsDigest;
    copy.regions = run.regions;
    return copy;
}

} // namespace

Comparison
ExperimentRunner::score(const Workload &workload,
                        const RunResult &baseline,
                        const RunResult &subject)
{
    if (subject.stats.cycles == 0 || baseline.stats.cycles == 0)
        axm_panic("zero-cycle run for ", workload.name());

    Comparison cmp;
    cmp.baseline = withoutOutputs(baseline);
    cmp.subject = withoutOutputs(subject);
    cmp.speedup = static_cast<double>(baseline.stats.cycles) /
                  static_cast<double>(subject.stats.cycles);
    cmp.energyReduction = baseline.energyPj() / subject.energyPj();
    cmp.normalizedUops = static_cast<double>(subject.stats.uops) /
                         static_cast<double>(baseline.stats.uops);
    cmp.memoUopShare = static_cast<double>(subject.stats.memoUops) /
                       static_cast<double>(baseline.stats.uops);

    if (workload.qualityMetric() == QualityMetric::Misclassification) {
        cmp.qualityLoss =
            misclassificationRate(baseline.outputs, subject.outputs);
    } else {
        cmp.qualityLoss =
            normalizedSquaredError(baseline.outputs, subject.outputs);
    }
    // Element-wise relative error with a full-scale floor: deviations on
    // near-zero elements are judged against 1% of the output range
    // (the PSNR-style convention for image-like data), not against the
    // element itself.
    double maxAbs = 0.0;
    for (double v : baseline.outputs)
        maxAbs = std::max(maxAbs, std::abs(v));
    cmp.errorCdf = elementwiseRelativeErrorCdf(
        baseline.outputs, subject.outputs, std::max(1e-6, 0.01 * maxAbs));
    return cmp;
}

} // namespace axmemo
