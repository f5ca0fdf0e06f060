/**
 * @file
 * The AxIR core model: functional execution plus an approximate in-order
 * two-issue timing model of the ARM HPI configuration of Table 3.
 *
 * Timing methodology. Rather than a cycle-by-cycle event loop, the model
 * tracks, per program-order instruction, the earliest cycle it can issue
 * (front-end slot availability x source-operand readiness x functional-unit
 * availability) and when its result becomes ready. This reproduces the
 * stall behaviour of an in-order scoreboarded pipeline at a fraction of the
 * simulation cost and is the standard "interval" style of timing model.
 * Instruction supply is ideal (the kernels are loop-resident in a 32 KB
 * L1I); fetch/decode energy is still charged per µop.
 *
 * The memoization unit hangs off the core exactly as in Fig. 2: ld_crc /
 * reg_crc stream inputs into it (stalling only on a full input queue),
 * lookup waits for the pending CRC then probes the LUTs with Table 4
 * latencies, and br_hit/br_miss consume the condition flag it sets.
 *
 * Interpreter loops (DESIGN.md §10). The per-instruction handlers
 * live once in sim/interp_body.inc and are compiled into two loops:
 * a lean loop with the per-run mode tests folded to constants
 * (in-order, block-batched, no observer), which run() takes whenever
 * the run allows it, and the general loop for out-of-order, unbatched
 * and observed runs. Both retire bit-identical simulated state,
 * stats, and traces. The dispatch form is fixed per build: computed
 * goto where labels-as-values is available (GCC/Clang), a plain
 * switch under -DAXMEMO_FORCE_PORTABLE. Macro-op batching
 * (AXMEMO_NO_BATCH / --no-batch to disable) folds the purely static
 * per-instruction counters — macro-instruction, µop, and per-class
 * µop-event totals — into per-basic-block sums (isa/blocks.hh) added
 * once per block entry, with the runaway guard and watchdog poll
 * moving to block granularity. Dynamic stats and all timing stay
 * per-instruction.
 */

#ifndef AXMEMO_SIM_SIMULATOR_HH
#define AXMEMO_SIM_SIMULATOR_HH

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/events.hh"
#include "common/run_control.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "obs/stats.hh"
#include "isa/blocks.hh"
#include "isa/dyn_trace.hh"
#include "isa/op_traits.hh"
#include "isa/program.hh"
#include "memo/memo_unit.hh"
#include "memsys/hierarchy.hh"
#include "memsys/sim_memory.hh"
#include "sim/branch_predictor.hh"

namespace axmemo {

/** Core pipeline parameters (Table 3). */
struct CpuConfig
{
    unsigned issueWidth = 2;
    Cycle mispredictPenalty = 5;
    double freqGhz = 2.0;
    unsigned numIntAlus = 2;
    unsigned predictorEntries = 4096;

    /**
     * Out-of-order mode (Section 6.1 notes AxMemo also fits OoO cores;
     * the hash-value registers are renamed like architectural
     * registers). The front end dispatches in order at issueWidth per
     * cycle, bounded by the reorder buffer; execution starts as soon as
     * operands and a unit are ready; retirement is in order. The same
     * memoization-unit protocol applies unchanged.
     */
    bool outOfOrder = false;
    unsigned robSize = 64;
};

/** Whole-system configuration for one simulation. */
struct SimConfig
{
    CpuConfig cpu{};
    HierarchyConfig hierarchy{};
    /** Attach a memoization unit (memo ops panic without one). */
    bool memoEnabled = false;
    MemoUnitConfig memo{};
    /** Abort if the program executes more macro-instructions than this. */
    std::uint64_t maxMacroInsts = 4ull << 30;
    /** Cooperative watchdog/interrupt control, polled every 64K macro
     * instructions; null disables polling (common/run_control.hh). */
    const RunControl *control = nullptr;
};

/** Aggregated results of one simulation run. */
struct SimStats
{
    Cycle cycles = 0;
    /** Macro AxIR instructions retired (markers excluded). */
    std::uint64_t macroInsts = 0;
    /** µops retired (intrinsics expanded; the paper-comparable count). */
    std::uint64_t uops = 0;
    /** µops belonging to memoization instructions + memo branches
     * (ld_crc counts as a normal load, Section 6.2). */
    std::uint64_t memoUops = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    /** Extra cycles the CPU stalled on a full memo-unit input queue. */
    Cycle memoQueueStalls = 0;
    /** Dynamic RegionBegin markers executed (the scalar twin of
     * dists.regionInvocations: the distribution sums to this). */
    std::uint64_t regionEntries = 0;

    MemoUnitStats memo{};

    /**
     * Distribution views of the run (obs layer), all collected off the
     * per-instruction path: memo-side samples accumulate per lookup in
     * the memoization unit, the rest are snapshots taken at halt. Each
     * distribution has a scalar twin it must sum (or count) to —
     * stats.txt consumers cross-check them.
     */
    struct Dists
    {
        /** Consecutive reported memo hits between misses; the sample
         * sum equals memo.hits(). */
        Histogram memoHitStreak{};
        /** Lookup-instruction latency in cycles; the sample count
         * equals memo.lookups. */
        Distribution memoLookupLatency{};
        /** Dynamic entries per static region id; sums to
         * regionEntries. */
        Histogram regionInvocations{};
        /** Valid data lines per L2 set at halt (LUT-reserved ways
         * excluded). */
        Distribution l2SetOccupancy{};
    };
    Dists dists{};

    /** All energy-relevant events (uop classes, cache, dram, memo). */
    CounterSet events{};

    /** Wall-clock seconds at the configured frequency. */
    double
    seconds(double freqGhz) const
    {
        return static_cast<double>(cycles) / (freqGhz * 1e9);
    }
};

/** Functional + timing execution of one AxIR program. */
class Simulator
{
  public:
    /**
     * @param prog verified program to run (must outlive the simulator).
     * @param mem simulated memory holding the workload's data.
     */
    Simulator(const Program &prog, SimMemory &mem,
              const SimConfig &config = {});

    /** Execute from instruction 0 until Halt. @return final stats. */
    const SimStats &run();

    /** True once run() has taken the lean loop (see file comment). */
    bool ranLean() const { return ranLean_; }

    const SimStats &stats() const { return stats_; }
    MemoizationUnit &memoUnit() { return memoUnit_; }
    MemHierarchy &hierarchy() { return hierarchy_; }

    /** Register state readout for tests and output extraction. */
    std::uint64_t intReg(IReg reg) const;
    float floatReg(FReg reg) const;

    /**
     * Optional per-retired-instruction observer (static index). Used for
     * ad-hoc observers; adds no timing cost but pays a std::function
     * call per retired instruction — prefer setTraceBuffer for capture.
     */
    void setTraceHook(std::function<void(InstIndex, const Inst &)> hook)
    {
        traceHook_ = std::move(hook);
    }

    /**
     * Reusable-buffer trace capture: retired instructions are appended
     * straight into @p buffer (no indirect call, no allocation once the
     * buffer's capacity is warm). Takes precedence over the hook.
     * @p buffer must outlive the simulator.
     */
    void setTraceBuffer(TraceBuffer *buffer) { traceBuf_ = buffer; }

  private:
    /**
     * Per-static-instruction facts the cycle loop would otherwise
     * recompute on every dynamic instance (operand shapes, µop counts,
     * unit routing, energy event id). Built once at construction.
     * Operands are pre-resolved to indices into the unified regReady_
     * scoreboard (int regs, then float regs, then one write-only dummy
     * slot for "no destination"), so the hot loop indexes one array
     * with no float/int/validity branching.
     */
    struct Decoded
    {
        /** regReady_ indices; unused slots point at the read-only
         * always-zero entry so readiness is an unconditional 3-way
         * max with no per-operand count branching. */
        std::uint32_t src[3] = {0, 0, 0};
        std::uint32_t nsrc = 0;
        std::uint32_t dst = 0; ///< regReady_ index (dummy if none)
        Cycle latency = 1;
        unsigned uops = 1; ///< max(1, traits.uops)
        FuClass fu = FuClass::IntAlu;      ///< raw unit (None = marker)
        FuClass issueFu = FuClass::IntAlu; ///< unit gating issue
        bool pipelined = true;
        bool memoCounted = false; ///< contributes to stats_.memoUops
        /** Straight-line successor starts a new basic block (it is a
         * branch target): batched mode must enterBlock() on
         * fallthrough, not only at control transfers. */
        bool enterNext = false;
        Ev uopEv = Ev::NumEvents; ///< NumEvents when EnergyClass::None
        /** Handler address for computed-goto dispatch, resolved by
         * the loop's prelude (labels are function-local); unused in a
         * portable build. Lives here so dispatch reads it from the same
         * cache line as the rest of the decode. */
        const void *label = nullptr;
    };

    // --- timing helpers ---
    Cycle issueUops(Cycle earliest, unsigned uops);
    Cycle *fuSlot(FuClass fu);

    // --- interpreter loops (sim/interp_body.inc, see file comment) ---
    template <bool Lean> Cycle runLoop();
    /** Fold a block's static aggregates into the stats at block entry;
     * runs the runaway guard and watchdog poll at block granularity.
     * Inline: it fires once per basic block, and hot blocks are short. */
    void
    enterBlock(InstIndex leader)
    {
        const BasicBlock &bb = blocks_.at(leader);
        stats_.macroInsts += bb.macroInsts;
        stats_.uops += bb.uops;
        stats_.memoUops += bb.memoUops;
        ev_.addRange(bb.uopEvents.data(), numUopEvents);
        // Guards move to block granularity: the runaway trip and the
        // watchdog poll may overshoot by at most one block length.
        if (stats_.macroInsts > config_.maxMacroInsts)
            raiseRunaway();
        if (config_.control && stats_.macroInsts >= nextPoll_) {
            config_.control->check("simulator");
            nextPoll_ = (stats_.macroInsts | 0xFFFF) + 1;
        }
    }
    [[noreturn]] void raiseRunaway();

    // --- functional helpers ---
    std::uint64_t readInt(RegId reg) const;
    float readFloat(RegId reg) const;
    void writeInt(RegId reg, std::uint64_t value);
    void writeFloat(RegId reg, float value);
    /** Unchecked operand reads for the interpreter hot path; operand
     * shapes are guaranteed by Program::verify(). */
    std::uint64_t srcInt(RegId reg) const
    {
        return intRegs_[regIndex(reg)];
    }
    float srcFloat(RegId reg) const
    {
        return floatRegs_[regIndex(reg)];
    }

    const Program &prog_;
    SimMemory &mem_;
    SimConfig config_;
    MemHierarchy hierarchy_;
    MemoizationUnit memoUnit_;
    BranchPredictor predictor_;

    std::vector<Decoded> decoded_;
    /** Basic-block decomposition with static aggregates (batching). */
    BlockMap blocks_;

    std::vector<std::uint64_t> intRegs_;
    std::vector<float> floatRegs_;
    /** Unified readiness scoreboard: [int regs | float regs |
     * write-only dummy | read-only zero]. */
    std::vector<Cycle> regReady_;
    std::uint32_t dummyReadyIdx_ = 0;
    std::uint32_t zeroReadyIdx_ = 0;

    // Run-time interpreter mode (resolved from RuntimeOptions by run()).
    bool batched_ = true;
    bool ranLean_ = false;
    /** Next stats_.macroInsts threshold for the batched watchdog poll. */
    std::uint64_t nextPoll_ = 0;

    // Front-end slot accounting.
    Cycle frontCycle_ = 0;
    unsigned slotsLeft_ = 0;

    // Functional-unit availability (IntAlu has numIntAlus instances,
    // inline to keep the per-instruction min-scan off the heap).
    static constexpr unsigned kMaxIntAlus = 16;
    std::array<Cycle, kMaxIntAlus> aluReady_{};
    unsigned numAlus_ = 2;
    std::array<Cycle, 8> unitReady_{};

    // Memoization condition flag (set by lookup).
    bool hitFlag_ = false;
    Cycle hitFlagReady_ = 0;

    // Out-of-order retirement ring: retire time of the last robSize
    // instructions (dispatch stalls when the ROB would overflow).
    std::vector<Cycle> retireRing_;
    std::size_t retireHead_ = 0;
    Cycle lastRetire_ = 0;

    SimStats stats_;
    /** Hot-path event accumulator, folded into stats_.events at halt. */
    EventCounters ev_;
    /** Dynamic entries per region id (RegionBegin hint, Section 5). */
    std::unordered_map<std::int64_t, std::uint64_t> regionCounts_;
    std::function<void(InstIndex, const Inst &)> traceHook_;
    TraceBuffer *traceBuf_ = nullptr;
    bool ran_ = false;
};

} // namespace axmemo

#endif // AXMEMO_SIM_SIMULATOR_HH
