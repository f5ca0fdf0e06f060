#include "sim/simulator.hh"

#include <cmath>

#include "common/bits.hh"
#include "common/expected.hh"
#include "common/log.hh"
#include "common/runtime_options.hh"
#include "crc/cpu_features.hh"
#include "isa/disasm.hh"
#include "obs/trace.hh"

/**
 * The dispatch form of both interpreter loops, fixed per build.
 * Computed goto (labels-as-values) is a GNU extension; gate it on the
 * compilers that provide it and leave -DAXMEMO_FORCE_PORTABLE a single
 * switch that strips every non-standard fast path from the build
 * (matching crc_accel.cc).
 */
#if (defined(__GNUC__) || defined(__clang__)) &&                             \
    !defined(AXMEMO_FORCE_PORTABLE)
#define AXMEMO_HAVE_COMPUTED_GOTO 1
#else
#define AXMEMO_HAVE_COMPUTED_GOTO 0
#endif

namespace axmemo {

namespace {

/** EnergyClass -> µop event id (NumEvents = "charge nothing"). */
constexpr Ev kUopEvent[] = {
    Ev::UopIntAlu,    // EnergyClass::IntAlu
    Ev::UopIntMul,    // EnergyClass::IntMul
    Ev::UopIntDiv,    // EnergyClass::IntDiv
    Ev::UopFpSimple,  // EnergyClass::FpSimple
    Ev::UopFpMul,     // EnergyClass::FpMul
    Ev::UopFpDiv,     // EnergyClass::FpDiv
    Ev::UopFpLong,    // EnergyClass::FpLong
    Ev::UopMem,       // EnergyClass::Mem
    Ev::UopBranch,    // EnergyClass::Branch
    Ev::UopMemo,      // EnergyClass::Memo
    Ev::NumEvents,    // EnergyClass::None
};

} // namespace

Simulator::Simulator(const Program &prog, SimMemory &mem,
                     const SimConfig &config)
    : prog_(prog), mem_(mem), config_(config),
      hierarchy_(config.hierarchy), memoUnit_(config.memo),
      predictor_(config.cpu.predictorEntries),
      intRegs_(prog.numIntRegs(), 0),
      floatRegs_(prog.numFloatRegs(), 0.0f)
{
    if (config_.cpu.numIntAlus == 0 ||
        config_.cpu.numIntAlus > kMaxIntAlus)
        axm_fatal("numIntAlus must be in [1, ", kMaxIntAlus, "]");
    numAlus_ = config_.cpu.numIntAlus;
    slotsLeft_ = config_.cpu.issueWidth;

    // Unified readiness scoreboard: int regs, then float regs, then a
    // write-only dummy slot that absorbs "no destination" writebacks.
    const auto nInt = static_cast<std::uint32_t>(prog.numIntRegs());
    dummyReadyIdx_ = nInt + prog.numFloatRegs();
    zeroReadyIdx_ = dummyReadyIdx_ + 1;
    regReady_.assign(zeroReadyIdx_ + 1, 0);
    const auto readyIndex = [&](RegId reg) -> std::uint32_t {
        if (reg == invalidReg)
            return dummyReadyIdx_;
        const auto idx = static_cast<std::uint32_t>(regIndex(reg));
        return isFloatReg(reg) ? nInt + idx : idx;
    };

    // Predecode: resolve everything about a static instruction that the
    // cycle loop would otherwise recompute per dynamic instance.
    decoded_.resize(prog.size());
    for (InstIndex i = 0; i < prog.size(); ++i) {
        const Inst &inst = prog.at(i);
        const OpTraits &traits = opTraits(inst.op);
        Decoded &d = decoded_[static_cast<std::size_t>(i)];
        const OperandInfo ops = operandsOf(inst);
        d.nsrc = ops.numSources;
        for (unsigned k = 0; k < 3; ++k)
            d.src[k] = k < ops.numSources
                           ? readyIndex(ops.sources[k])
                           : zeroReadyIdx_;
        d.dst = readyIndex(ops.dest);
        d.latency = traits.latency;
        d.uops = std::max(1u, traits.uops);
        d.fu = traits.fu;
        d.issueFu =
            traits.fu == FuClass::None ? FuClass::IntAlu : traits.fu;
        d.pipelined = traits.pipelined;
        d.memoCounted = inst.isMemoOp() && inst.op != Op::LdCrc;
        d.uopEv = kUopEvent[static_cast<std::size_t>(traits.energy)];
    }
    blocks_ = partitionBlocks(prog);
    // Mark fallthrough block boundaries: an instruction whose
    // straight-line successor leads a different block (a branch
    // target). Branches and Halt transfer control explicitly and
    // handle block entry themselves.
    for (InstIndex i = 0; i + 1 < prog.size(); ++i) {
        const Inst &inst = prog.at(i);
        if (inst.isBranch() || inst.op == Op::Halt)
            continue;
        const auto cur = static_cast<std::size_t>(i);
        decoded_[cur].enterNext =
            blocks_.blockOf[cur] != blocks_.blockOf[cur + 1];
    }
    if (config_.cpu.outOfOrder) {
        if (config_.cpu.robSize == 0)
            axm_fatal("out-of-order mode needs a nonzero ROB");
        retireRing_.assign(config_.cpu.robSize, 0);
    }
    // When the memoization unit's L2 LUT lives in LLC ways, carve those
    // ways out of the L2 cache (Section 3.3).
    if (config_.memoEnabled && config_.memo.l2LutBytes > 0) {
        const auto &l2cfg = config_.hierarchy.l2;
        const std::uint64_t wayBytes = l2cfg.sizeBytes / l2cfg.assoc;
        const unsigned ways = static_cast<unsigned>(
            (config_.memo.l2LutBytes + wayBytes - 1) / wayBytes);
        hierarchy_.reserveL2Ways(ways);
    }
}

std::uint64_t
Simulator::readInt(RegId reg) const
{
    if (reg == invalidReg || isFloatReg(reg))
        axm_panic("readInt of bad register");
    return intRegs_[regIndex(reg)];
}

float
Simulator::readFloat(RegId reg) const
{
    if (reg == invalidReg || !isFloatReg(reg))
        axm_panic("readFloat of bad register");
    return floatRegs_[regIndex(reg)];
}

void
Simulator::writeInt(RegId reg, std::uint64_t value)
{
    intRegs_[regIndex(reg)] = value;
}

void
Simulator::writeFloat(RegId reg, float value)
{
    floatRegs_[regIndex(reg)] = value;
}

std::uint64_t
Simulator::intReg(IReg reg) const
{
    return readInt(reg.id);
}

float
Simulator::floatReg(FReg reg) const
{
    return readFloat(reg.id);
}

Cycle
Simulator::issueUops(Cycle earliest, unsigned uops)
{
    if (frontCycle_ < earliest) {
        frontCycle_ = earliest;
        slotsLeft_ = config_.cpu.issueWidth;
    }
    const Cycle issued = frontCycle_;
    // Closed form of draining uops through issueWidth slots per cycle
    // (replaces the per-chunk loop the libm intrinsics used to spin in).
    if (uops >= slotsLeft_) {
        const unsigned width = config_.cpu.issueWidth;
        const unsigned rem = uops - slotsLeft_;
        frontCycle_ += 1 + rem / width;
        slotsLeft_ = width - rem % width;
    } else {
        slotsLeft_ -= uops;
    }
    return issued;
}

Cycle *
Simulator::fuSlot(FuClass fu)
{
    if (fu == FuClass::IntAlu) {
        // Pick the ALU instance that frees up first (lowest index wins
        // ties, matching the original scoreboard scan).
        std::size_t best = 0;
        for (std::size_t i = 1; i < numAlus_; ++i) {
            if (aluReady_[i] < aluReady_[best])
                best = i;
        }
        return &aluReady_[best];
    }
    return &unitReady_[static_cast<std::size_t>(fu)];
}

void
Simulator::raiseRunaway()
{
    raiseError(ErrorCode::Simulation, "simulator",
               prog_.name() + ": exceeded max macro instructions (" +
                   std::to_string(config_.maxMacroInsts) +
                   ") — runaway loop?");
}

template <bool Lean>
Cycle
Simulator::runLoop()
{
#include "sim/interp_body.inc"
}

const SimStats &
Simulator::run()
{
    if (ran_)
        axm_panic("Simulator::run called twice");
    ran_ = true;
    if (config_.memoEnabled)
        memoUnit_.reset();

    // Resolve the host-side execution strategy. These knobs select
    // between bit-identical data paths (simulated state, stats, and
    // traces match across all settings), so they are run-time options,
    // not part of the experiment configuration.
    const RuntimeOptions opts = RuntimeOptions::global();
    batched_ = opts.blockBatch;
    nextPoll_ = 0x10000;
    // The lean loop fixes interp_body.inc's six per-run mode values to
    // in-order, batched and unobserved; take it whenever they hold.
    // Host alone does not stop it: its one line is printed here,
    // before either loop.
    ranLean_ = !config_.cpu.outOfOrder && batched_ && !traceBuf_ &&
               !traceHook_ && !trace::anyEnabledExcept(trace::Flag::Host);
    if (trace::enabled(trace::Flag::Host)) {
        trace::setCycle(0);
        AXM_TRACE(Host, "host", "loop=", ranLean_ ? "lean" : "general",
                  " dispatch=",
                  AXMEMO_HAVE_COMPUTED_GOTO ? "threaded" : "switch",
                  " batch=", batched_ ? "on" : "off",
                  " crc=", memoUnit_.engine().bulkPathName(),
                  " cpu=", cpuSimdSummary());
    }

    const Cycle endCycle = ranLean_ ? runLoop<true>() : runLoop<false>();

    stats_.cycles = std::max(endCycle, frontCycle_);
    ev_.mergeInto(stats_.events);
    if (config_.memoEnabled) {
        stats_.memo = memoUnit_.stats();
        stats_.memo.monitorTripped = !memoUnit_.enabled();
        memoUnit_.events().mergeInto(stats_.events);
        // Distribution views: flush the open hit streak, then snapshot.
        memoUnit_.finalizeDists();
        stats_.dists.memoHitStreak = memoUnit_.hitStreaks();
        stats_.dists.memoLookupLatency = memoUnit_.lookupLatencies();
    }
    hierarchy_.events().mergeInto(stats_.events);
    stats_.dists.l2SetOccupancy = hierarchy_.l2().occupancy();
    for (const auto &kv : regionCounts_)
        stats_.dists.regionInvocations.sample(kv.second);
    stats_.events.add("cycles", stats_.cycles);
    return stats_;
}

} // namespace axmemo
