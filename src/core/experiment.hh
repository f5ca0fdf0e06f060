/**
 * @file
 * The top-level AxMemo experiment API.
 *
 * ExperimentRunner wires the whole co-design together for one benchmark:
 * dataset synthesis -> AxIR build -> (optional) memoization transform ->
 * timing simulation -> energy model -> quality scoring. Every figure and
 * table of the paper's evaluation is a loop over ExperimentRunner calls
 * with different configurations.
 */

#ifndef AXMEMO_CORE_EXPERIMENT_HH
#define AXMEMO_CORE_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "compiler/atm_transform.hh"
#include "compiler/iact_transform.hh"
#include "compiler/software_transform.hh"
#include "compiler/transform.hh"
#include "energy/energy_model.hh"
#include "memo/backend.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace axmemo {

/** LUT sizing of one AxMemo configuration (Fig. 7's x-axis). */
struct LutSetup
{
    std::uint64_t l1Bytes = 8 * 1024;
    std::uint64_t l2Bytes = 0; ///< 0 disables the L2 LUT
    std::string
    label() const
    {
        std::string s = "L1(" + std::to_string(l1Bytes / 1024) + "KB)";
        if (l2Bytes)
            s += "+L2(" + std::to_string(l2Bytes / 1024) + "KB)";
        return s;
    }
};

/** Everything one experiment needs beyond the workload itself. */
struct ExperimentConfig
{
    WorkloadParams dataset{};
    LutSetup lut{};
    unsigned crcBits = 32;
    HierarchyConfig hierarchy{};
    bool qualityMonitor = true;
    /**
     * When >= 0, overrides every region's truncation level (used by the
     * ablation benches and the truncation tuner).
     */
    int truncOverride = -1;
    /** Runtime truncation control (Section 3.1's dynamic approach). */
    AdaptiveTruncationConfig adaptive{};
    /** L2 LUT content policy (inclusive vs victim; see memo_unit.hh). */
    L2LutPolicy l2Policy = L2LutPolicy::Inclusive;
    SwMemoConfig software{};
    AtmConfig atm{};
    /** iACT-style similarity backend knobs (iact_transform.hh). */
    IactConfig iact{};
    EnergyParams energy{};
    CpuConfig cpu{};
};

/** Results of one simulated run. */
struct RunResult
{
    /** Registered name of the backend that produced this run. */
    std::string backend = "baseline";
    SimStats stats{};
    EnergyBreakdown energy{};
    /** Total LUT lookups and hits (hardware or software counters). */
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    /** Program outputs, for quality scoring. Empty once a run has been
     * through the checkpoint journal or into a Comparison; the digest
     * stays. */
    std::vector<double> outputs;
    /** digestOutputs() of the outputs, set once by RunSession::finish(). */
    std::uint64_t outputsDigest = 0;
    /** What the transform reported (empty for Baseline). */
    std::vector<RegionTransformInfo> regions;

    double
    hitRate() const
    {
        return lookups ? static_cast<double>(hits) /
                             static_cast<double>(lookups)
                       : 0.0;
    }
    double energyPj() const { return energy.totalPj(); }
};

/** FNV-1a-64 with each output's 64-bit pattern as one input word
 * (RunResult::outputsDigest). */
std::uint64_t digestOutputs(const std::vector<double> &outputs);

/** A subject run scored against its paired baseline. Both runs are
 * kept without their outputs: everything that reads outputs happens
 * in ExperimentRunner::score(). */
struct Comparison
{
    RunResult baseline;
    RunResult subject;
    double speedup = 1.0;
    double energyReduction = 1.0;
    /** Equation 2 (or misclassification for Jmeint). */
    double qualityLoss = 0.0;
    /** Element-wise relative error distribution (Fig. 10b). */
    EmpiricalCdf errorCdf;
    /** Normalized dynamic µop count and its memoization share (Fig 8). */
    double normalizedUops = 1.0;
    double memoUopShare = 0.0;
};

/**
 * One runPrepared() in flight, owning everything the backend session
 * borrows (SimConfig, EnergyModel, the BackendRunContext) so an
 * incremental driver — the serve worker thread — can hold a run open
 * across its own event loop and advance it phase by phase, interleaving
 * other work between steps. The batch path drives the identical object
 * to completion in ExperimentRunner::runPrepared, so the two paths
 * cannot diverge.
 *
 * The borrowed arguments (workload, baselineProg, mem) must outlive
 * the session, exactly as for runPrepared().
 */
class RunSession
{
  public:
    /** Opens the session; unknown @p backend names throw the registry's
     * structured Config error. @p hooks are polled/applied between
     * phases (see BackendSessionHooks). */
    RunSession(const ExperimentConfig &config, const Workload &workload,
               const std::string &backend, const Program &baselineProg,
               SimMemory &mem, BackendSessionHooks hooks = {});
    ~RunSession();

    RunSession(const RunSession &) = delete;
    RunSession &operator=(const RunSession &) = delete;

    /** Execute the next phase (checking hooks first). @return true
     * while phases remain. */
    bool step();

    /** Name of the phase the next step() runs. */
    const char *phase() const { return session_->phase(); }

    /** After the last step: fold the run and read the workload outputs.
     * Call exactly once. */
    RunResult finish();

  private:
    const Workload &workload_;
    SimMemory &mem_;
    std::string backend_;
    SimConfig simConfig_;
    EnergyModel energyModel_;
    BackendRunContext ctx_;
    std::unique_ptr<BackendSession> session_;
};

/** Runs benchmarks under a configuration; see file comment. */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(const ExperimentConfig &config = {});

    const ExperimentConfig &config() const { return config_; }

    /** Execute @p workload once under the backend named @p backend
     * (resolved through memoBackends(); unknown names throw the
     * registry's structured Config error). */
    RunResult run(Workload &workload, const std::string &backend) const;

    /**
     * Execute @p backend on an already-prepared workload:
     * @p baselineProg must be the result of workload.build() after a
     * prepare() with this config's dataset params, and @p mem a private
     * copy of the prepared memory (it is mutated by the run). This is
     * the sweep engine's entry point — prepare/build happen once, runs
     * share them. @p control, when non-null, is polled by the simulator
     * so the watchdog/interrupt can abort a runaway run
     * (common/run_control.hh).
     */
    RunResult runPrepared(const Workload &workload,
                          const std::string &backend,
                          const Program &baselineProg, SimMemory &mem,
                          const RunControl *control = nullptr) const;

    /** Execute baseline + @p backend and score the pair. */
    Comparison compare(Workload &workload,
                       const std::string &backend) const;

    /**
     * Score an already-run pair (reuse one baseline across many subject
     * configurations; the baseline must come from the same dataset
     * parameters). The quality metrics read both output vectors here;
     * the returned Comparison copies everything else of the two runs,
     * but not their outputs.
     */
    static Comparison score(const Workload &workload,
                            const RunResult &baseline,
                            const RunResult &subject);

  private:
    ExperimentConfig config_;
};

} // namespace axmemo

#endif // AXMEMO_CORE_EXPERIMENT_HH
