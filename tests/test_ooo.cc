/**
 * @file
 * Out-of-order timing-mode tests: the OoO model must exploit
 * instruction-level parallelism an in-order core cannot, respect its
 * reorder-buffer bound, preserve functional results exactly, and still
 * run the full memoization protocol.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "isa/builder.hh"
#include "sim/simulator.hh"

namespace axmemo {
namespace {

SimConfig
oooConfig(unsigned rob = 64)
{
    SimConfig config;
    config.cpu.outOfOrder = true;
    config.cpu.robSize = rob;
    return config;
}

Cycle
runCycles(const Program &prog, const SimConfig &config)
{
    SimMemory mem;
    Simulator sim(prog, mem, config);
    return sim.run().cycles;
}

TEST(OutOfOrder, HidesLatencyBehindIndependentWork)
{
    // Each divide is immediately consumed (stalling an in-order front
    // end on its full latency) before independent adds appear; an OoO
    // core lets the adds dispatch past the stalled consumer.
    KernelBuilder b("mix");
    const IReg start = b.imm(1000000);
    const IReg three = b.imm(3);
    IReg chain = start;
    const IReg sink = b.imm(0);
    const IReg indep = b.imm(0);
    for (int i = 0; i < 16; ++i) {
        chain = b.div(chain, three);
        b.addTo(const_cast<IReg &>(sink), sink,
                chain); // stall-on-use right here
        for (int k = 0; k < 8; ++k)
            b.addTo(const_cast<IReg &>(indep), indep, 1);
    }
    const Program p = b.finish();

    const Cycle inOrder = runCycles(p, {});
    const Cycle ooo = runCycles(p, oooConfig());
    EXPECT_LT(ooo, inOrder);
}

TEST(OutOfOrder, FunctionalResultsIdentical)
{
    KernelBuilder b("func");
    const IReg sum = b.imm(0);
    const FReg facc = b.fimm(0.0f);
    b.forRange(0, 50, 1, [&](IReg i) {
        b.addTo(sum, sum, b.mul(i, 3));
        b.faddTo(facc, facc, b.fsqrt(b.itof(i)));
    });
    const Program p = b.finish();

    SimMemory m1, m2;
    Simulator inOrder(p, m1, {});
    Simulator ooo(p, m2, oooConfig());
    inOrder.run();
    ooo.run();
    EXPECT_EQ(inOrder.intReg(sum), ooo.intReg(sum));
    EXPECT_EQ(inOrder.floatReg(facc), ooo.floatReg(facc));
}

TEST(OutOfOrder, RobBoundsTheWindow)
{
    // With a 1-entry ROB, OoO degenerates to (at best) in-order-like
    // behaviour; a large ROB must be at least as fast.
    KernelBuilder b("rob");
    const IReg base = b.imm(100000);
    const IReg three = b.imm(3);
    IReg chain = base;
    const IReg indep = b.imm(0);
    for (int i = 0; i < 8; ++i) {
        chain = b.div(chain, three);
        for (int k = 0; k < 12; ++k)
            b.addTo(const_cast<IReg &>(indep), indep, 1);
    }
    const Program p = b.finish();

    const Cycle tiny = runCycles(p, oooConfig(2));
    const Cycle small = runCycles(p, oooConfig(8));
    const Cycle large = runCycles(p, oooConfig(128));
    EXPECT_LE(large, small);
    EXPECT_LE(small, tiny);
    EXPECT_LT(large, tiny);
}

TEST(OutOfOrder, DependentChainStillSerial)
{
    // ILP cannot be invented: a pure dependence chain takes the same
    // order of cycles either way.
    KernelBuilder b("chain");
    IReg acc = b.imm(1);
    for (int i = 0; i < 60; ++i)
        acc = b.add(acc, 1);
    const Program p = b.finish();
    const Cycle inOrder = runCycles(p, {});
    const Cycle ooo = runCycles(p, oooConfig());
    EXPECT_GE(ooo + 8, inOrder * 9 / 10);
    EXPECT_GE(ooo, 60u);
}

TEST(OutOfOrder, ZeroRobFatal)
{
    KernelBuilder b("t");
    b.imm(1);
    const Program p = b.finish();
    SimMemory mem;
    EXPECT_THROW(Simulator(p, mem, oooConfig(0)),
                 std::runtime_error);
}

TEST(OutOfOrder, MemoizationStillWorksEndToEnd)
{
    auto workload = makeWorkload("blackscholes");
    ExperimentConfig config;
    config.dataset.scale = 0.01;
    config.lut = {8 * 1024, 512 * 1024};
    config.cpu.outOfOrder = true;
    const ExperimentRunner runner(config);
    const Comparison cmp = runner.compare(*workload, "axmemo");
    EXPECT_GT(cmp.speedup, 1.2);
    EXPECT_EQ(cmp.qualityLoss, 0.0);
    EXPECT_GT(cmp.subject.hitRate(), 0.3);
}

TEST(OutOfOrder, BaselineFasterThanInOrder)
{
    // An OoO core should beat the in-order core on the same program.
    auto workload = makeWorkload("blackscholes");
    ExperimentConfig inOrderCfg;
    inOrderCfg.dataset.scale = 0.01;
    ExperimentConfig oooCfg = inOrderCfg;
    oooCfg.cpu.outOfOrder = true;

    const RunResult a = ExperimentRunner(inOrderCfg)
                            .run(*workload, "baseline");
    const RunResult b =
        ExperimentRunner(oooCfg).run(*workload, "baseline");
    EXPECT_LT(b.stats.cycles, a.stats.cycles);
}

} // namespace
} // namespace axmemo
