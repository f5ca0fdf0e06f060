/**
 * @file
 * Simulator tests: functional semantics of every opcode class, control
 * flow, memory access, and the in-order timing model's properties
 * (dual issue, dependence stalls, structural hazards, branch
 * mispredictions, cache latency).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>

#include "common/runtime_options.hh"
#include "core/experiment.hh"
#include "isa/builder.hh"
#include "memsys/sim_memory.hh"
#include "obs/trace.hh"
#include "sim/branch_predictor.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace axmemo {
namespace {

/** Run a freshly-built program and return the simulator for readouts. */
struct Ran
{
    SimMemory mem;
    std::unique_ptr<Simulator> sim;
    explicit Ran(Program prog, SimConfig config = {})
        : prog_(std::move(prog))
    {
        sim = std::make_unique<Simulator>(prog_, mem, config);
        sim->run();
    }

  private:
    Program prog_;
};

TEST(SimFunctional, IntegerArithmetic)
{
    KernelBuilder b("int");
    const IReg a = b.imm(20);
    const IReg c = b.imm(-6);
    const IReg sum = b.add(a, c);
    const IReg diff = b.sub(a, c);
    const IReg prod = b.mul(a, c);
    const IReg quot = b.div(a, c);
    const IReg rem = b.rem(a, c);
    const IReg mn = b.imin(a, c);
    const IReg mx = b.imax(a, c);
    Ran r(b.finish());
    EXPECT_EQ(static_cast<std::int64_t>(r.sim->intReg(sum)), 14);
    EXPECT_EQ(static_cast<std::int64_t>(r.sim->intReg(diff)), 26);
    EXPECT_EQ(static_cast<std::int64_t>(r.sim->intReg(prod)), -120);
    EXPECT_EQ(static_cast<std::int64_t>(r.sim->intReg(quot)), -3);
    EXPECT_EQ(static_cast<std::int64_t>(r.sim->intReg(rem)), 2);
    EXPECT_EQ(static_cast<std::int64_t>(r.sim->intReg(mn)), -6);
    EXPECT_EQ(static_cast<std::int64_t>(r.sim->intReg(mx)), 20);
}

TEST(SimFunctional, DivisionByZeroIsDefined)
{
    KernelBuilder b("div0");
    const IReg a = b.imm(7);
    const IReg z = b.imm(0);
    const IReg q = b.div(a, z);
    const IReg m = b.rem(a, z);
    Ran r(b.finish());
    EXPECT_EQ(r.sim->intReg(q), 0u);
    EXPECT_EQ(r.sim->intReg(m), 7u);
}

TEST(SimFunctional, LogicAndShifts)
{
    KernelBuilder b("logic");
    const IReg a = b.imm(0xf0f0);
    const IReg andv = b.band(a, 0xff00);
    const IReg orv = b.bor(a, b.imm(0x000f));
    const IReg xorv = b.bxor(a, 0xffff);
    const IReg shlv = b.shl(a, 4);
    const IReg shrv = b.shr(a, 4);
    const IReg neg = b.imm(-16);
    const IReg srav = b.sra(neg, 2);
    Ran r(b.finish());
    EXPECT_EQ(r.sim->intReg(andv), 0xf000u);
    EXPECT_EQ(r.sim->intReg(orv), 0xf0ffu);
    EXPECT_EQ(r.sim->intReg(xorv), 0x0f0fu);
    EXPECT_EQ(r.sim->intReg(shlv), 0xf0f00u);
    EXPECT_EQ(r.sim->intReg(shrv), 0xf0fu);
    EXPECT_EQ(static_cast<std::int64_t>(r.sim->intReg(srav)), -4);
}

TEST(SimFunctional, Comparisons)
{
    KernelBuilder b("cmp");
    const IReg a = b.imm(-3);
    const IReg c = b.imm(5);
    const IReg lt = b.slt(a, c);
    const IReg le = b.sle(c, c);
    const IReg eq = b.seq(a, c);
    const IReg ne = b.sne(a, c);
    Ran r(b.finish());
    EXPECT_EQ(r.sim->intReg(lt), 1u);
    EXPECT_EQ(r.sim->intReg(le), 1u);
    EXPECT_EQ(r.sim->intReg(eq), 0u);
    EXPECT_EQ(r.sim->intReg(ne), 1u);
}

TEST(SimFunctional, FloatArithmetic)
{
    KernelBuilder b("fp");
    const FReg x = b.fimm(2.0f);
    const FReg y = b.fimm(-0.5f);
    const FReg add = b.fadd(x, y);
    const FReg mul = b.fmul(x, y);
    const FReg div = b.fdiv(x, y);
    const FReg sq = b.fsqrt(x);
    const FReg ab = b.fabs(y);
    const FReg ng = b.fneg(y);
    const FReg mn = b.fmin(x, y);
    Ran r(b.finish());
    EXPECT_FLOAT_EQ(r.sim->floatReg(add), 1.5f);
    EXPECT_FLOAT_EQ(r.sim->floatReg(mul), -1.0f);
    EXPECT_FLOAT_EQ(r.sim->floatReg(div), -4.0f);
    EXPECT_FLOAT_EQ(r.sim->floatReg(sq), std::sqrt(2.0f));
    EXPECT_FLOAT_EQ(r.sim->floatReg(ab), 0.5f);
    EXPECT_FLOAT_EQ(r.sim->floatReg(ng), 0.5f);
    EXPECT_FLOAT_EQ(r.sim->floatReg(mn), -0.5f);
}

TEST(SimFunctional, Intrinsics)
{
    KernelBuilder b("intrinsics");
    const FReg x = b.fimm(0.5f);
    const FReg e = b.fexp(x);
    const FReg l = b.flog(x);
    const FReg s = b.fsin(x);
    const FReg c = b.fcos(x);
    const FReg a2 = b.fatan2(x, b.fimm(1.0f));
    const FReg ac = b.facos(x);
    Ran r(b.finish());
    EXPECT_FLOAT_EQ(r.sim->floatReg(e), std::exp(0.5f));
    EXPECT_FLOAT_EQ(r.sim->floatReg(l), std::log(0.5f));
    EXPECT_FLOAT_EQ(r.sim->floatReg(s), std::sin(0.5f));
    EXPECT_FLOAT_EQ(r.sim->floatReg(c), std::cos(0.5f));
    EXPECT_FLOAT_EQ(r.sim->floatReg(a2), std::atan2(0.5f, 1.0f));
    EXPECT_FLOAT_EQ(r.sim->floatReg(ac), std::acos(0.5f));
}

TEST(SimFunctional, Conversions)
{
    KernelBuilder b("cvt");
    const FReg f = b.itof(b.imm(-7));
    const IReg i = b.ftoi(b.fimm(3.9f));
    const IReg bits = b.fbits(b.fimm(1.0f));
    const FReg back = b.bitsf(b.imm(0x40000000)); // 2.0f
    Ran r(b.finish());
    EXPECT_FLOAT_EQ(r.sim->floatReg(f), -7.0f);
    EXPECT_EQ(static_cast<std::int64_t>(r.sim->intReg(i)), 3);
    EXPECT_EQ(r.sim->intReg(bits), 0x3f800000u);
    EXPECT_FLOAT_EQ(r.sim->floatReg(back), 2.0f);
}

TEST(SimFunctional, LoadStore)
{
    SimMemory mem;
    mem.write32(0x1000, 0xcafebabe);
    KernelBuilder b("mem");
    const IReg base = b.imm(0x1000);
    const IReg loaded = b.ld(base, 0, 4);
    b.st(base, 8, b.imm(0x1234), 2);
    const FReg pi = b.fimm(3.14f);
    b.stf(base, 16, pi);
    const FReg backf = b.ldf(base, 16);
    const Program p = b.finish();
    Simulator sim(p, mem, {});
    sim.run();
    EXPECT_EQ(sim.intReg(loaded), 0xcafebabeu);
    EXPECT_EQ(mem.read(0x1008, 2), 0x1234u);
    EXPECT_FLOAT_EQ(sim.floatReg(backf), 3.14f);
    EXPECT_EQ(sim.stats().loads, 2u);
    EXPECT_EQ(sim.stats().stores, 2u);
}

TEST(SimFunctional, ForRangeLoop)
{
    KernelBuilder b("loop");
    const IReg sum = b.imm(0);
    b.forRange(0, 10, 1, [&](IReg i) { b.addTo(sum, sum, i); });
    Ran r(b.finish());
    EXPECT_EQ(r.sim->intReg(sum), 45u);
}

TEST(SimFunctional, ForRangeNegativeStep)
{
    KernelBuilder b("loop");
    const IReg count = b.imm(0);
    b.forRange(5, 0, -1, [&](IReg) { b.addTo(count, count, 1); });
    Ran r(b.finish());
    EXPECT_EQ(r.sim->intReg(count), 5u);
}

TEST(SimFunctional, IfThenElse)
{
    KernelBuilder b("if");
    const IReg out = b.newIReg();
    b.ifThenElse(b.imm(0), [&] { b.assign(out, 1); },
                 [&] { b.assign(out, 2); });
    Ran r(b.finish());
    EXPECT_EQ(r.sim->intReg(out), 2u);
}

TEST(SimFunctional, NestedLoops)
{
    KernelBuilder b("nest");
    const IReg n = b.imm(0);
    b.forRange(0, 6, 1, [&](IReg) {
        b.forRange(0, 7, 1, [&](IReg) { b.addTo(n, n, 1); });
    });
    Ran r(b.finish());
    EXPECT_EQ(r.sim->intReg(n), 42u);
}

TEST(SimFunctional, TraceHookSeesEveryInstruction)
{
    KernelBuilder b("trace");
    b.forRange(0, 3, 1, [&](IReg) { b.imm(1); });
    std::uint64_t count = 0;
    SimMemory mem;
    const Program p = b.finish();
    Simulator sim(p, mem, {});
    sim.setTraceHook([&count](InstIndex, const Inst &) { ++count; });
    const SimStats &stats = sim.run();
    EXPECT_EQ(count, stats.macroInsts);
}

TEST(SimFunctional, RunawayLoopGuard)
{
    KernelBuilder b("spin");
    const Label head = b.newLabel();
    b.bind(head);
    b.imm(1);
    b.br(head);
    const Program p = b.finish();
    SimMemory mem;
    SimConfig config;
    config.maxMacroInsts = 1000;
    Simulator sim(p, mem, config);
    EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(SimFunctional, MemoOpWithoutUnitPanics)
{
    KernelBuilder b("bad");
    b.lookup(0);
    const Program p = b.finish();
    SimMemory mem;
    Simulator sim(p, mem, {}); // memoEnabled = false
    EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(SimFunctional, RunTwicePanics)
{
    KernelBuilder b("t");
    b.imm(1);
    const Program p = b.finish();
    SimMemory mem;
    Simulator sim(p, mem, {});
    sim.run();
    EXPECT_THROW(sim.run(), std::logic_error);
}

// --------------------------------------------------------------- timing

Cycle
cyclesOf(Program prog)
{
    SimMemory mem;
    Simulator sim(prog, mem, {});
    return sim.run().cycles;
}

TEST(SimTiming, DualIssuePairsIndependentOps)
{
    // 40 independent movi: 2-wide front end needs ~20 cycles.
    KernelBuilder b("ilp");
    for (int i = 0; i < 40; ++i)
        b.imm(i);
    const Cycle parallel = cyclesOf(b.finish());
    EXPECT_LE(parallel, 24u);
    EXPECT_GE(parallel, 20u);
}

TEST(SimTiming, DependenceChainSerializes)
{
    // 40 dependent adds: one per cycle minimum regardless of width.
    KernelBuilder b("chain");
    IReg acc = b.imm(0);
    for (int i = 0; i < 40; ++i)
        acc = b.add(acc, 1);
    EXPECT_GE(cyclesOf(b.finish()), 40u);
}

TEST(SimTiming, UnpipelinedDividerBlocks)
{
    KernelBuilder b("divs");
    const IReg a = b.imm(100);
    const IReg c = b.imm(3);
    for (int i = 0; i < 4; ++i)
        b.div(a, c); // independent, but one divider
    const Cycle serial = cyclesOf(b.finish());
    EXPECT_GE(serial, 4 * opTraits(Op::Div).latency);
}

TEST(SimTiming, PipelinedFpOverlaps)
{
    KernelBuilder b("fps");
    const FReg x = b.fimm(1.5f);
    for (int i = 0; i < 16; ++i)
        b.fmul(x, x); // independent, pipelined unit
    // 16 muls at 1/cycle + drain beats 16 x 4-cycle serial.
    EXPECT_LT(cyclesOf(b.finish()), 16u * opTraits(Op::Fmul).latency);
}

TEST(SimTiming, MispredictsCostCycles)
{
    // A data-dependent alternating branch mispredicts often; a
    // monotone loop branch predicts well.
    KernelBuilder b("alt");
    const IReg flip = b.imm(0);
    const IReg sink = b.imm(0);
    b.forRange(0, 200, 1, [&](IReg) {
        b.assign(flip, b.bxor(flip, 1));
        b.ifThen(flip, [&] { b.addTo(sink, sink, 1); });
    });
    SimMemory mem;
    const Program p = b.finish();
    Simulator sim(p, mem, {});
    const SimStats &stats = sim.run();
    EXPECT_GT(stats.mispredicts, 50u);
    EXPECT_LT(stats.mispredicts, stats.branches);
}

TEST(SimTiming, ColdMissSlowerThanWarm)
{
    // Sum an array N times: the first pass pays the cold misses, so the
    // second pass's incremental cycles are far fewer.
    auto passCycles = [](int passes) {
        KernelBuilder b("sum");
        const IReg base = b.imm(0x8000);
        const IReg sum = b.imm(0);
        for (int pass = 0; pass < passes; ++pass) {
            b.forRange(0, 256, 1, [&](IReg i) {
                const IReg v = b.ld(b.add(base, b.shl(i, 2)), 0, 4);
                b.addTo(sum, sum, v);
            });
        }
        SimMemory mem;
        for (unsigned i = 0; i < 256; ++i)
            mem.write32(0x8000 + 4 * i, i);
        const Program prog = b.finish();
        Simulator sim(prog, mem, {});
        return sim.run().cycles;
    };
    const Cycle one = passCycles(1);
    const Cycle two = passCycles(2);
    EXPECT_LT(two - one, one);
}

TEST(BranchPredictorUnit, LearnsBias)
{
    BranchPredictor bp(64);
    for (int i = 0; i < 100; ++i)
        bp.predict(5, true);
    EXPECT_LT(bp.mispredicts(), 3u);
}

TEST(BranchPredictorUnit, AliasesByIndexBits)
{
    BranchPredictor bp(64);
    // pc 0 and pc 64 share a counter.
    bp.predict(0, true);
    bp.predict(0, true);
    EXPECT_TRUE(bp.predict(64, true));
}

TEST(SimTiming, StatsAddUp)
{
    KernelBuilder b("stats");
    const FReg x = b.fimm(2.0f);
    b.fexp(x);
    b.imm(1);
    SimMemory mem;
    const Program p = b.finish();
    Simulator sim(p, mem, {});
    const SimStats &stats = sim.run();
    // 4 macro insts (fmovi, fexp, movi, halt); fexp expands.
    EXPECT_EQ(stats.macroInsts, 4u);
    EXPECT_EQ(stats.uops, 3u + opTraits(Op::Fexp).uops);
    EXPECT_EQ(stats.events.get("frontend_uops"), stats.uops);
}

/**
 * Sets the block-batching knob where Simulator::run() reads it,
 * RuntimeOptions::global(): the environment, or the frozen copy once a
 * driver froze the options. Restores both when it goes.
 */
class BlockBatchScope
{
  public:
    explicit BlockBatchScope(bool on)
    {
        if (const char *value = std::getenv("AXMEMO_NO_BATCH"))
            savedEnv_ = value;
        setenv("AXMEMO_NO_BATCH", on ? "0" : "1", 1);
        if (RuntimeOptions::globalFrozen()) {
            savedFrozen_ = RuntimeOptions::global();
            RuntimeOptions opts = *savedFrozen_;
            opts.blockBatch = on;
            RuntimeOptions::setGlobal(opts);
        }
    }
    ~BlockBatchScope()
    {
        if (savedEnv_.empty())
            unsetenv("AXMEMO_NO_BATCH");
        else
            setenv("AXMEMO_NO_BATCH", savedEnv_.c_str(), 1);
        if (savedFrozen_)
            RuntimeOptions::setGlobal(*savedFrozen_);
    }
    BlockBatchScope(const BlockBatchScope &) = delete;
    BlockBatchScope &operator=(const BlockBatchScope &) = delete;

  private:
    std::string savedEnv_;
    std::optional<RuntimeOptions> savedFrozen_;
};

/**
 * The lean and general interpreter loops and block batching (DESIGN.md
 * §10) are host-side execution strategies only: every combination must
 * retire the same instructions, charge the same cycles, and count the
 * same events. An attached TraceBuffer and --no-batch each send a run
 * to the general loop. This is the in-process twin of
 * tests/dispatch_equivalence.sh, which diffs whole artifact runs.
 */
TEST(SimEquivalence, DispatchAndBatchModesAreBitIdentical)
{
    struct Outcome
    {
        SimStats stats;
        std::uint64_t acc = 0;
        float fval = 0.0f;
        bool lean = false;
        std::uint64_t observed = 0;
    };

    const auto runWith = [](bool batch, bool traceBuffer) -> Outcome {
        const BlockBatchScope knob(batch);

        // Loops, taken/not-taken branches, loads, stores, and float
        // math: one of each thing the inner loop specializes on.
        KernelBuilder b("equiv");
        const IReg base = b.imm(0x2000);
        const IReg acc = b.imm(0);
        b.forRange(0, 24, 1, [&](IReg i) {
            const IReg addr = b.add(base, b.shl(i, 2));
            b.st(addr, 0, i, 4);
            const IReg back = b.ld(addr, 0, 4);
            b.addTo(acc, acc, back);
            b.ifThenElse(b.band(i, 1), [&] { b.addTo(acc, acc, 1); },
                         [&] { b.addTo(acc, acc, 2); });
        });
        const FReg x = b.fimm(1.5f);
        const FReg y = b.fadd(b.fmul(x, x), x);

        SimMemory mem;
        const Program p = b.finish();
        Simulator sim(p, mem, {});
        TraceBuffer buffer;
        if (traceBuffer)
            sim.setTraceBuffer(&buffer);
        Outcome out{sim.run(), sim.intReg(acc), sim.floatReg(y),
                    sim.ranLean(), buffer.observed()};
        return out;
    };

    // The reference: the general loop, counting per instruction.
    const Outcome ref = runWith(false, false);
    EXPECT_FALSE(ref.lean);
    EXPECT_EQ(ref.acc, 312u); // sum 0..23 twice + 12*1 + 12*2
    for (const bool batch : {false, true}) {
        for (const bool traceBuffer : {false, true}) {
            const Outcome got = runWith(batch, traceBuffer);
            SCOPED_TRACE(std::string("batch=") + (batch ? "on" : "off") +
                         " traceBuffer=" + (traceBuffer ? "on" : "off"));
            EXPECT_EQ(got.lean, batch && !traceBuffer);
            EXPECT_EQ(got.observed,
                      traceBuffer ? ref.stats.macroInsts : 0u);
            EXPECT_EQ(got.acc, ref.acc);
            EXPECT_EQ(got.fval, ref.fval);
            EXPECT_EQ(got.stats.cycles, ref.stats.cycles);
            EXPECT_EQ(got.stats.macroInsts, ref.stats.macroInsts);
            EXPECT_EQ(got.stats.uops, ref.stats.uops);
            EXPECT_EQ(got.stats.memoUops, ref.stats.memoUops);
            EXPECT_EQ(got.stats.branches, ref.stats.branches);
            EXPECT_EQ(got.stats.mispredicts, ref.stats.mispredicts);
            EXPECT_EQ(got.stats.loads, ref.stats.loads);
            EXPECT_EQ(got.stats.stores, ref.stats.stores);
            EXPECT_EQ(got.stats.memoQueueStalls,
                      ref.stats.memoQueueStalls);
            EXPECT_EQ(got.stats.regionEntries, ref.stats.regionEntries);
            EXPECT_EQ(got.stats.events.all(), ref.stats.events.all());
        }
    }
}

/**
 * The lean loop against the general loop on whole workloads: each of
 * the ten benchmarks under the baseline, the headline AxMemo LUT (8 KB
 * L1 + 512 KB L2) and the software LUT runs once with batching on,
 * which takes the lean loop, and once with --no-batch, which forces
 * the general loop. Stats, memo-unit counters, every event counter
 * and the output digest must match. Each run's one Host trace line
 * shows which loop it took (when the trace layer is compiled in).
 */
class LoopEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>>
{
};

TEST_P(LoopEquivalenceTest, LeanMatchesGeneral)
{
    const auto &[name, backend] = GetParam();
    ExperimentConfig config;
    config.dataset.scale = 0.01;
    config.lut = {8 * 1024, 512 * 1024};
    const ExperimentRunner runner(config);

    const auto runWith = [&](bool batch, std::string *hostLine) {
        const BlockBatchScope knob(batch);
        auto workload = makeWorkload(name);
        const std::string path = ::testing::TempDir() + "axmemo_loop_" +
                                 std::to_string(::getpid()) + ".trace";
        if (!trace::openTraceFile(path))
            ADD_FAILURE() << "cannot open " << path;
        trace::setFlag(trace::Flag::Host, true);
        RunResult result = runner.run(*workload, backend);
        trace::setFlag(trace::Flag::Host, false);
        trace::closeTraceFile();
        std::ifstream in(path);
        std::getline(in, *hostLine);
        std::remove(path.c_str());
        return result;
    };

    std::string leanLine, generalLine;
    const RunResult lean = runWith(true, &leanLine);
    const RunResult general = runWith(false, &generalLine);
#ifndef AXMEMO_NO_TRACE
    EXPECT_NE(leanLine.find("loop=lean"), std::string::npos) << leanLine;
    EXPECT_NE(generalLine.find("loop=general"), std::string::npos)
        << generalLine;
#endif

    const SimStats &a = lean.stats;
    const SimStats &b = general.stats;
    EXPECT_GT(a.macroInsts, 0u);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.macroInsts, b.macroInsts);
    EXPECT_EQ(a.uops, b.uops);
    EXPECT_EQ(a.memoUops, b.memoUops);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.memoQueueStalls, b.memoQueueStalls);
    EXPECT_EQ(a.regionEntries, b.regionEntries);
    EXPECT_EQ(a.memo.lookups, b.memo.lookups);
    EXPECT_EQ(a.memo.l1Hits, b.memo.l1Hits);
    EXPECT_EQ(a.memo.l2Hits, b.memo.l2Hits);
    EXPECT_EQ(a.memo.misses, b.memo.misses);
    EXPECT_EQ(a.memo.sampledHits, b.memo.sampledHits);
    EXPECT_EQ(a.memo.updates, b.memo.updates);
    EXPECT_EQ(a.memo.invalidates, b.memo.invalidates);
    EXPECT_EQ(a.memo.inputBytesHashed, b.memo.inputBytesHashed);
    EXPECT_EQ(a.memo.monitorTripped, b.memo.monitorTripped);
    EXPECT_EQ(a.events.all(), b.events.all());
    EXPECT_EQ(lean.lookups, general.lookups);
    EXPECT_EQ(lean.hits, general.hits);
    EXPECT_EQ(lean.outputsDigest, general.outputsDigest);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, LoopEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(workloadNames()),
                       ::testing::Values("baseline", "axmemo",
                                         "software-lut")),
    [](const ::testing::TestParamInfo<LoopEquivalenceTest::ParamType>
           &info) {
        std::string label = std::get<0>(info.param) + "_" +
                            std::get<1>(info.param);
        std::replace(label.begin(), label.end(), '-', '_');
        return label;
    });

} // namespace
} // namespace axmemo
