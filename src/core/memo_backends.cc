#include "core/memo_backends.hh"

#include <memory>
#include <utility>

#include "common/log.hh"
#include "compiler/atm_transform.hh"
#include "compiler/iact_transform.hh"
#include "compiler/software_transform.hh"
#include "compiler/transform.hh"
#include "core/experiment.hh"
#include "energy/energy_model.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace axmemo {

namespace {

/** Hardware memo-unit configuration for one run (LUT geometry, CRC
 * width, quality monitor wiring) — the glue between ExperimentConfig
 * and the simulator's memo unit. */
MemoUnitConfig
memoConfigFor(const ExperimentConfig &config, const Workload &workload,
              unsigned dataBytes)
{
    MemoUnitConfig memo;
    memo.crc = CrcSpec::ofWidth(config.crcBits);
    memo.l1Lut.sizeBytes = config.lut.l1Bytes;
    memo.l1Lut.dataBytes = dataBytes;
    memo.l2LutBytes = config.lut.l2Bytes;
    memo.quality.enabled = config.qualityMonitor;
    memo.quality.floatLanes = workload.monitorLanes();
    memo.quality.integerData = workload.integerOutputs();
    memo.adaptive = config.adaptive;
    memo.l2Policy = config.l2Policy;
    return memo;
}

/** Fold a software transform's per-region counter registers into the
 * run's lookup/hit totals. */
void
accumulateSwCounters(const Simulator &sim, const SwTransformResult &tr,
                     RunResult &result)
{
    for (const auto &counter : tr.counters) {
        result.lookups += sim.intReg(counter.lookups);
        result.hits += sim.intReg(counter.hits);
    }
}

/**
 * Two-phase session shared by all builtin backends: "build" applies
 * the backend's transform and constructs the simulator, "simulate"
 * runs it to halt; finish() folds energy and counters. The statement
 * order within each phase is exactly the order of the pre-split
 * monolithic run() bodies — the seam-equivalence suite holds the batch
 * path to byte identity against the frozen legacy switch.
 */
class BuiltinSession : public BackendSession
{
  public:
    explicit BuiltinSession(const BackendRunContext &ctx) : ctx_(ctx) {}

    bool
    step() override
    {
        if (phase_ == 0) {
            build();
            ++phase_;
            return true;
        }
        if (phase_ == 1) {
            stats_ = sim_->run();
            ++phase_;
        }
        return false;
    }

    const char *
    phase() const override
    {
        return phase_ == 0 ? "build" : phase_ == 1 ? "simulate" : "done";
    }

    void
    finish(RunResult &result) override
    {
        if (phase_ < 2)
            axm_panic("BackendSession::finish before completion (in "
                      "phase '", phase(), "')");
        result.stats = stats_;
        fold(result);
    }

  protected:
    /** Transform as needed and construct sim_. */
    virtual void build() = 0;
    /** Fold energy/lookups/regions into @p result (stats are set). */
    virtual void fold(RunResult &result) = 0;

    const BackendRunContext &ctx_;
    std::unique_ptr<Simulator> sim_;
    SimStats stats_{};

  private:
    int phase_ = 0;
};

class BaselineSession final : public BuiltinSession
{
  public:
    using BuiltinSession::BuiltinSession;

  protected:
    void
    build() override
    {
        sim_ = std::make_unique<Simulator>(ctx_.baselineProg, ctx_.mem,
                                           ctx_.sim);
    }
    void
    fold(RunResult &result) override
    {
        result.energy = ctx_.energy.compute(result.stats, nullptr);
    }
};

class BaselineBackend final : public MemoBackend
{
  public:
    std::string name() const override { return "baseline"; }
    std::string
    description() const override
    {
        return "unmodified program; the reference every comparison is "
               "scored against";
    }

    std::unique_ptr<BackendSession>
    prepare(const BackendRunContext &ctx) const override
    {
        return std::make_unique<BaselineSession>(ctx);
    }
};

class AxMemoSession final : public BuiltinSession
{
  public:
    AxMemoSession(const BackendRunContext &ctx, bool noTrunc)
        : BuiltinSession(ctx), noTrunc_(noTrunc)
    {
    }

  protected:
    void
    build() override
    {
        MemoSpec spec = ctx_.workload.memoSpec();
        if (noTrunc_)
            spec = spec.withUniformTruncation(0);
        else if (ctx_.config.truncOverride >= 0)
            spec = spec.withUniformTruncation(
                static_cast<unsigned>(ctx_.config.truncOverride));
        tr_ = MemoTransform::apply(ctx_.baselineProg, spec);
        ctx_.sim.memoEnabled = true;
        ctx_.sim.memo = memoConfigFor(ctx_.config, ctx_.workload,
                                      tr_.dataBytes);
        sim_ = std::make_unique<Simulator>(tr_.program, ctx_.mem,
                                           ctx_.sim);
    }
    void
    fold(RunResult &result) override
    {
        result.energy =
            ctx_.energy.compute(result.stats, &ctx_.sim.memo);
        result.lookups = result.stats.memo.lookups;
        result.hits = result.stats.memo.hits();
        result.regions = std::move(tr_.regions);
    }

  private:
    const bool noTrunc_;
    TransformResult tr_;
};

/** The hardware memoization unit, with or without input truncation. */
class AxMemoBackend final : public MemoBackend
{
  public:
    explicit AxMemoBackend(bool noTrunc) : noTrunc_(noTrunc) {}

    std::string
    name() const override
    {
        return noTrunc_ ? "axmemo-notrunc" : "axmemo";
    }
    std::string
    description() const override
    {
        return noTrunc_ ? "hardware memoization with truncation "
                          "disabled (Fig. 11 ablation)"
                        : "hardware memoization unit with Table 2 "
                          "truncation (the paper's design)";
    }
    bool hardwareMemo() const override { return true; }

    std::unique_ptr<BackendSession>
    prepare(const BackendRunContext &ctx) const override
    {
        return std::make_unique<AxMemoSession>(ctx, noTrunc_);
    }

  private:
    const bool noTrunc_;
};

/** Session of the pure-software rewriting backends; the backend
 * supplies its transform as a callable. */
class SoftwareSession final : public BuiltinSession
{
  public:
    using TransformFn =
        SwTransformResult (*)(const BackendRunContext &ctx);

    SoftwareSession(const BackendRunContext &ctx, TransformFn transform)
        : BuiltinSession(ctx), transform_(transform)
    {
    }

  protected:
    void
    build() override
    {
        tr_ = transform_(ctx_);
        sim_ = std::make_unique<Simulator>(tr_.program, ctx_.mem,
                                           ctx_.sim);
    }
    void
    fold(RunResult &result) override
    {
        result.energy = ctx_.energy.compute(result.stats, nullptr);
        accumulateSwCounters(*sim_, tr_, result);
        result.regions = std::move(tr_.regions);
    }

  private:
    TransformFn transform_;
    SwTransformResult tr_;
};

class SoftwareLutBackend final : public MemoBackend
{
  public:
    std::string name() const override { return "software-lut"; }
    std::string
    description() const override
    {
        return "software CRC + direct-indexed array LUT contender "
               "(Section 6.2)";
    }

    std::unique_ptr<BackendSession>
    prepare(const BackendRunContext &ctx) const override
    {
        return std::make_unique<SoftwareSession>(
            ctx, +[](const BackendRunContext &c) {
                return SoftwareMemoTransform::apply(
                    c.baselineProg, c.workload.memoSpec(), c.mem,
                    c.config.software);
            });
    }
};

class AtmBackend final : public MemoBackend
{
  public:
    std::string name() const override { return "atm"; }
    std::string
    description() const override
    {
        return "Approximate Task Memoization: sampled-byte hash plus "
               "task dispatch cost";
    }

    std::unique_ptr<BackendSession>
    prepare(const BackendRunContext &ctx) const override
    {
        return std::make_unique<SoftwareSession>(
            ctx, +[](const BackendRunContext &c) {
                return AtmTransform::apply(c.baselineProg,
                                           c.workload.memoSpec(),
                                           c.mem, c.config.atm);
            });
    }
};

class IactBackend final : public MemoBackend
{
  public:
    std::string name() const override { return "iact"; }
    std::string
    description() const override
    {
        return "iACT/HPAC-style software memoization: relative-error "
               "input matching in per-thread pools";
    }

    std::unique_ptr<BackendSession>
    prepare(const BackendRunContext &ctx) const override
    {
        return std::make_unique<SoftwareSession>(
            ctx, +[](const BackendRunContext &c) {
                return IactTransform::apply(c.baselineProg,
                                            c.workload.memoSpec(),
                                            c.mem, c.config.iact);
            });
    }
};

} // namespace

MemoBackendRegistry &
memoBackends()
{
    static const bool registered = [] {
        MemoBackendRegistry &r = MemoBackendRegistry::instance();
        r.add(0, std::make_unique<BaselineBackend>());
        r.add(1, std::make_unique<AxMemoBackend>(false));
        r.add(2, std::make_unique<AxMemoBackend>(true));
        r.add(3, std::make_unique<SoftwareLutBackend>());
        r.add(4, std::make_unique<AtmBackend>());
        r.add(5, std::make_unique<IactBackend>());
        return true;
    }();
    (void)registered;
    return MemoBackendRegistry::instance();
}

} // namespace axmemo
