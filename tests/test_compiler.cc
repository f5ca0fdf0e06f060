/**
 * @file
 * Compiler tests: the dynamic trace, the DDDG, the candidate-subgraph
 * finder, and — most critically — the AxMemo / software-memoization
 * transforms, including end-to-end functional equivalence between the
 * baseline and rewritten programs and the region checks every
 * transform shares.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "compiler/atm_transform.hh"
#include "compiler/dddg.hh"
#include "compiler/iact_transform.hh"
#include "compiler/region_finder.hh"
#include "compiler/software_transform.hh"
#include "compiler/trace.hh"
#include "compiler/transform.hh"
#include "isa/builder.hh"
#include "isa/disasm.hh"
#include "sim/simulator.hh"

namespace axmemo {
namespace {

/**
 * A tiny but representative workload: per element, a memoizable region
 * computing two outputs from two loaded floats; stores both results.
 */
struct MiniKernel
{
    SimMemory mem;
    Addr in = 0;
    Addr out = 0;
    unsigned n = 64;
    MemoSpec spec;

    MiniKernel()
    {
        in = mem.allocate(n * 8);
        out = mem.allocate(n * 8);
        // A handful of distinct values so memoization has reuse.
        for (unsigned i = 0; i < n; ++i) {
            mem.writeFloat(in + 8 * i, 1.0f + static_cast<float>(i % 5));
            mem.writeFloat(in + 8 * i + 4,
                           2.0f + static_cast<float>(i % 3));
        }
        RegionMemoSpec region;
        region.regionId = 1;
        region.lut = 0;
        region.truncBits = 0;
        spec.regions.push_back(region);
    }

    Program
    build() const
    {
        KernelBuilder b("mini");
        const IReg inReg = b.imm(static_cast<std::int64_t>(in));
        const IReg outReg = b.imm(static_cast<std::int64_t>(out));
        b.forRange(0, n, 1, [&](IReg i) {
            const IReg addr = b.add(inReg, b.shl(i, 3));
            const FReg x = b.ldf(addr, 0);
            const FReg y = b.ldf(addr, 4);
            b.regionBegin(1);
            const FReg s = b.fadd(b.fmul(x, x), y);
            const FReg t = b.fdiv(x, b.fadd(y, b.fimm(1.0f)));
            b.regionEnd(1);
            const IReg oaddr = b.add(outReg, b.shl(i, 3));
            b.stf(oaddr, 0, s);
            b.stf(oaddr, 4, t);
        });
        return b.finish();
    }

    std::vector<float>
    outputs() const
    {
        return mem.readFloats(out, 2 * n);
    }
};

// --------------------------------------------------------------- trace

TEST(Trace, RecordsWindowAndTruncates)
{
    KernelBuilder b("t");
    b.forRange(0, 100, 1, [&](IReg) { b.imm(1); });
    const Program p = b.finish();
    SimMemory mem;
    TraceRecorder recorder(50);
    Simulator sim(p, mem, {});
    sim.setTraceHook(recorder.hook());
    sim.run();
    EXPECT_EQ(recorder.entries().size(), 50u);
    EXPECT_TRUE(recorder.truncated());
    EXPECT_GT(recorder.observed(), 100u);
}

// ---------------------------------------------------------------- dddg

TEST(Dddg, EdgesFollowDefUse)
{
    KernelBuilder b("t");
    const FReg x = b.fimm(2.0f);        // 0 const
    const FReg y = b.fmul(x, x);        // 1
    const FReg z = b.fadd(y, x);        // 2
    (void)z;
    const Program p = b.finish();

    TraceRecorder recorder;
    SimMemory mem;
    Simulator sim(p, mem, {});
    sim.setTraceHook(recorder.hook());
    sim.run();

    const Dddg graph(p, recorder.entries());
    ASSERT_GE(graph.size(), 3u);
    const auto &verts = graph.vertices();
    EXPECT_EQ(verts[0].kind, VertexKind::Const);
    EXPECT_EQ(verts[1].kind, VertexKind::Compute);
    // fmul consumed the const twice; fadd consumed fmul and the const.
    EXPECT_EQ(verts[1].preds.size(), 2u);
    EXPECT_EQ(verts[2].preds.size(), 2u);
    EXPECT_EQ(verts[2].preds[0], 1u);
}

TEST(Dddg, ExternalInputsCounted)
{
    // Reading a register never written in the window counts as an
    // external input.
    Program p("ext");
    p.append({.op = Op::Add, .dst = iregId(0), .src1 = iregId(5),
              .imm = 1});
    p.append({.op = Op::Halt});
    p.verify();
    std::vector<TraceEntry> trace = {{0, Op::Add}};
    const Dddg graph(p, trace);
    EXPECT_EQ(graph.vertices()[0].externalInputs, 1u);
}

TEST(Dddg, RegionAttribution)
{
    KernelBuilder b("t");
    const FReg x = b.fimm(1.0f);
    b.regionBegin(7);
    b.fmul(x, x);
    b.regionEnd(7);
    b.fadd(x, x);
    const Program p = b.finish();

    TraceRecorder recorder;
    SimMemory mem;
    Simulator sim(p, mem, {});
    sim.setTraceHook(recorder.hook());
    sim.run();

    const Dddg graph(p, recorder.entries());
    bool sawInside = false;
    bool sawOutside = false;
    for (const auto &v : graph.vertices()) {
        if (v.op == Op::Fmul) {
            EXPECT_EQ(v.region, 7);
            sawInside = true;
        }
        if (v.op == Op::Fadd) {
            EXPECT_EQ(v.region, -1);
            sawOutside = true;
        }
    }
    EXPECT_TRUE(sawInside && sawOutside);
}

// -------------------------------------------------------- region finder

TEST(RegionFinder, FindsLoopBodyAndDedups)
{
    MiniKernel kernel;
    const Program p = kernel.build();
    TraceRecorder recorder;
    SimMemory mem = std::move(kernel.mem);
    Simulator sim(p, mem, {});
    sim.setTraceHook(recorder.hook());
    sim.run();

    const Dddg graph(p, recorder.entries());
    RegionFinderConfig config;
    config.minCiRatio = 2.0;
    const RegionFinder finder(config);
    const RegionAnalysis analysis = finder.analyze(graph);

    // Many dynamic instances, few unique signatures (one loop body).
    EXPECT_GT(analysis.totalDynamicSubgraphs, 64u);
    EXPECT_LE(analysis.unique.size(), 8u);
    EXPECT_GT(analysis.coverage, 0.1);
    EXPECT_GT(analysis.avgCiRatio, 2.0);
    // The heaviest unique subgraph lies in the hinted region.
    ASSERT_FALSE(analysis.unique.empty());
    EXPECT_EQ(analysis.unique.front().region, 1);
}

TEST(RegionFinder, ThresholdFiltersEverything)
{
    MiniKernel kernel;
    const Program p = kernel.build();
    TraceRecorder recorder;
    SimMemory mem = std::move(kernel.mem);
    Simulator sim(p, mem, {});
    sim.setTraceHook(recorder.hook());
    sim.run();
    const Dddg graph(p, recorder.entries());

    RegionFinderConfig config;
    config.minCiRatio = 1e9;
    const RegionAnalysis analysis = RegionFinder(config).analyze(graph);
    EXPECT_EQ(analysis.totalDynamicSubgraphs, 0u);
    EXPECT_TRUE(analysis.unique.empty());
}

// ------------------------------------------------------- memo transform

TEST(MemoTransform, EmitsFig1Structure)
{
    const MiniKernel kernel;
    const Program base = kernel.build();
    const TransformResult tr = MemoTransform::apply(base, kernel.spec);

    unsigned lookups = 0, updates = 0, brMiss = 0, ldCrc = 0,
             regCrc = 0;
    for (const Inst &inst : tr.program.insts()) {
        lookups += inst.op == Op::Lookup;
        updates += inst.op == Op::Update;
        brMiss += inst.op == Op::BrMiss;
        ldCrc += inst.op == Op::LdCrc;
        regCrc += inst.op == Op::RegCrc;
    }
    EXPECT_EQ(lookups, 1u);
    EXPECT_EQ(updates, 1u);
    EXPECT_EQ(brMiss, 1u);
    // Both inputs are loads immediately before the region: fused.
    EXPECT_EQ(ldCrc, 2u);
    EXPECT_EQ(regCrc, 0u);

    ASSERT_EQ(tr.regions.size(), 1u);
    EXPECT_EQ(tr.regions[0].numInputs, 2u);
    EXPECT_EQ(tr.regions[0].inputBytes, 8u);
    EXPECT_EQ(tr.regions[0].numOutputs, 2u);
    EXPECT_EQ(tr.dataBytes, 8u);
    EXPECT_EQ(tr.regions[0].fusedLoads, 2u);
}

TEST(MemoTransform, FunctionalEquivalenceWithoutTruncation)
{
    // With trunc 0 and no collisions, the memoized program must produce
    // bit-identical outputs.
    MiniKernel base;
    {
        const Program p = base.build();
        Simulator sim(p, base.mem, {});
        sim.run();
    }

    MiniKernel memo;
    {
        const TransformResult tr =
            MemoTransform::apply(memo.build(), memo.spec);
        SimConfig config;
        config.memoEnabled = true;
        config.memo.l1Lut.dataBytes = tr.dataBytes;
        Simulator sim(tr.program, memo.mem, config);
        sim.run();
        EXPECT_GT(sim.stats().memo.lookups, 0u);
        EXPECT_GT(sim.stats().memo.hits(), 0u);
    }

    EXPECT_EQ(base.outputs(), memo.outputs());
}

TEST(MemoTransform, HitsSkipComputation)
{
    MiniKernel kernel;
    const TransformResult tr =
        MemoTransform::apply(kernel.build(), kernel.spec);
    SimConfig config;
    config.memoEnabled = true;
    config.memo.l1Lut.dataBytes = tr.dataBytes;
    config.memo.quality.enabled = false;
    Simulator sim(tr.program, kernel.mem, config);
    const SimStats &stats = sim.run();
    // 5x3 = 15 distinct keys over 64 iterations.
    EXPECT_EQ(stats.memo.lookups, 64u);
    EXPECT_EQ(stats.memo.misses, 15u);
    EXPECT_EQ(stats.memo.hits(), 49u);
    EXPECT_EQ(stats.memo.updates, 15u);
}

TEST(MemoTransform, MissingRegionFatal)
{
    const MiniKernel kernel;
    MemoSpec spec = kernel.spec;
    spec.regions[0].regionId = 42;
    EXPECT_THROW(MemoTransform::apply(kernel.build(), spec),
                 std::runtime_error);
}

TEST(MemoTransform, StoreInRegionFatal)
{
    KernelBuilder b("bad");
    const IReg addr = b.imm(0x1000);
    b.regionBegin(1);
    b.st(addr, 0, addr, 4);
    b.regionEnd(1);
    const Program p = b.finish();
    MemoSpec spec;
    RegionMemoSpec region;
    region.regionId = 1;
    spec.regions.push_back(region);
    EXPECT_THROW(MemoTransform::apply(p, spec), std::runtime_error);
}

TEST(MemoTransform, TooManyOutputsFatal)
{
    KernelBuilder b("bad");
    const FReg x = b.fimm(1.0f);
    b.regionBegin(1);
    const FReg a = b.fadd(x, x);
    const FReg c = b.fmul(x, x);
    const FReg d = b.fsub(x, x);
    b.regionEnd(1);
    const IReg sink = b.imm(0x1000);
    b.stf(sink, 0, a);
    b.stf(sink, 4, c);
    b.stf(sink, 8, d);
    const Program p = b.finish();
    MemoSpec spec;
    RegionMemoSpec region;
    region.regionId = 1;
    spec.regions.push_back(region);
    EXPECT_THROW(MemoTransform::apply(p, spec), std::runtime_error);
}

TEST(MemoTransform, EveryTransformRejectsBranchIntoRegionMiddle)
{
    // An outside branch into a region's second instruction would skip
    // the probe, and the fill would then store through whatever entry
    // address the registers held. All four transforms must refuse.
    KernelBuilder b("midbody");
    const IReg x = b.imm(3);
    const Label inside = b.newLabel();
    b.brTrue(b.sne(x, 0), inside);
    b.regionBegin(1);
    const IReg y = b.add(x, 1);
    b.bind(inside);
    const IReg z = b.mul(y, 2);
    b.regionEnd(1);
    b.st(b.imm(0x1000), 0, z, 4);
    const Program p = b.finish();
    const InstRange range = p.regions().at(1);
    bool entersMidBody = false;
    for (const Inst &inst : p.insts())
        entersMidBody |= inst.op == Op::Bt && inst.imm == range.begin + 1;
    ASSERT_TRUE(entersMidBody);

    MemoSpec spec;
    RegionMemoSpec region;
    region.regionId = 1;
    spec.regions.push_back(region);
    SimMemory mem;
    EXPECT_THROW(MemoTransform::apply(p, spec), std::runtime_error);
    EXPECT_THROW(SoftwareMemoTransform::apply(p, spec, mem),
                 std::runtime_error);
    EXPECT_THROW(AtmTransform::apply(p, spec, mem), std::runtime_error);
    EXPECT_THROW(IactTransform::apply(p, spec, mem), std::runtime_error);
}

TEST(MemoTransform, EarlyExitRoutesThroughUpdate)
{
    // A region with an internal branch to its end must still update the
    // LUT on that path (otherwise the allocated entry is orphaned and
    // the next update panics).
    KernelBuilder b("early");
    const IReg n = b.imm(16);
    const IReg outAddr = b.imm(0x4000);
    b.forRange(0, n, 1, [&](IReg i) {
        const IReg v = b.band(i, 3);
        b.regionBegin(1);
        const IReg res = b.newIReg();
        b.assign(res, 0);
        b.ifThen(b.sne(v, 0), [&] { b.assign(res, b.mul(v, 7)); });
        b.regionEnd(1);
        b.st(b.add(outAddr, b.shl(i, 2)), 0, res, 4);
    });
    const Program p = b.finish();

    MemoSpec spec;
    RegionMemoSpec region;
    region.regionId = 1;
    spec.regions.push_back(region);
    const TransformResult tr = MemoTransform::apply(p, spec);

    SimMemory mem;
    SimConfig config;
    config.memoEnabled = true;
    config.memo.quality.enabled = false;
    Simulator sim(tr.program, mem, config);
    sim.run(); // must not panic
    // Functional check vs baseline expectations: res = (i&3)*7.
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(mem.read32(0x4000 + 4 * i), (i & 3) * 7);
}

TEST(MemoTransform, InvalidatePointsEmitInvalidate)
{
    MiniKernel kernel;
    Program p = [&] {
        KernelBuilder b("inv");
        b.regionBegin(9);
        b.regionEnd(9);
        const IReg addr = b.imm(static_cast<std::int64_t>(kernel.in));
        const FReg x = b.ldf(addr, 0);
        b.regionBegin(1);
        const FReg y = b.fmul(x, x);
        b.regionEnd(1);
        b.stf(addr, 32, y);
        return b.finish();
    }();

    MemoSpec spec;
    RegionMemoSpec region;
    region.regionId = 1;
    spec.regions.push_back(region);
    spec.invalidateAt[9] = {0};
    const TransformResult tr = MemoTransform::apply(p, spec);

    unsigned invalidates = 0;
    for (const Inst &inst : tr.program.insts())
        invalidates += inst.op == Op::Invalidate;
    EXPECT_EQ(invalidates, 1u);
}

TEST(MemoTransform, ExcludedInputsNotHashed)
{
    KernelBuilder b("excl");
    const IReg table = b.imm(0x9000);
    const FReg x = b.fimm(3.0f);
    b.regionBegin(1);
    const FReg stateVal = b.ldf(table, 0); // state read inside
    const FReg y = b.fadd(x, stateVal);
    b.regionEnd(1);
    b.stf(table, 64, y);
    const Program p = b.finish();

    RegionMemoSpec region;
    region.regionId = 1;
    region.excludeInputs.insert(table.id);
    MemoSpec spec;
    spec.regions.push_back(region);
    const TransformResult tr = MemoTransform::apply(p, spec);

    // Only x is hashed: 4 input bytes.
    ASSERT_EQ(tr.regions.size(), 1u);
    EXPECT_EQ(tr.regions[0].numInputs, 1u);
    EXPECT_EQ(tr.regions[0].inputBytes, 4u);
}

TEST(MemoTransform, TruncationAppliedFromSpec)
{
    MiniKernel kernel;
    MemoSpec spec = kernel.spec;
    spec.regions[0].truncBits = 12;
    const TransformResult tr =
        MemoTransform::apply(kernel.build(), spec);
    bool sawTrunc = false;
    for (const Inst &inst : tr.program.insts()) {
        if (inst.op == Op::LdCrc) {
            EXPECT_EQ(inst.truncBits, 12);
            sawTrunc = true;
        }
    }
    EXPECT_TRUE(sawTrunc);
}

// --------------------------------------------------- software transform

TEST(SoftwareTransform, FunctionalEquivalence)
{
    MiniKernel base;
    {
        const Program p = base.build();
        Simulator sim(p, base.mem, {});
        sim.run();
    }

    MiniKernel sw;
    SwTransformResult tr;
    std::uint64_t lookups = 0, hits = 0;
    {
        tr = SoftwareMemoTransform::apply(sw.build(), sw.spec, sw.mem);
        Simulator sim(tr.program, sw.mem, {});
        sim.run();
        for (const auto &counter : tr.counters) {
            lookups += sim.intReg(counter.lookups);
            hits += sim.intReg(counter.hits);
        }
    }

    EXPECT_EQ(base.outputs(), sw.outputs());
    EXPECT_EQ(lookups, 64u);
    EXPECT_EQ(hits, 49u); // 15 distinct keys
}

TEST(SoftwareTransform, MoreInstructionsThanHardware)
{
    MiniKernel hw;
    MiniKernel sw;
    const TransformResult hwTr =
        MemoTransform::apply(hw.build(), hw.spec);
    const SwTransformResult swTr =
        SoftwareMemoTransform::apply(sw.build(), sw.spec, sw.mem);

    SimConfig hwConfig;
    hwConfig.memoEnabled = true;
    hwConfig.memo.l1Lut.dataBytes = hwTr.dataBytes;
    Simulator hwSim(hwTr.program, hw.mem, hwConfig);
    Simulator swSim(swTr.program, sw.mem, {});
    const std::uint64_t hwUops = hwSim.run().uops;
    const std::uint64_t swUops = swSim.run().uops;
    EXPECT_GT(swUops, hwUops * 3 / 2);
}

TEST(AtmTransform, RunsAndCounts)
{
    MiniKernel kernel;
    AtmConfig config;
    config.sampleBytes = 4;
    const SwTransformResult tr =
        AtmTransform::apply(kernel.build(), kernel.spec, kernel.mem,
                            config);
    Simulator sim(tr.program, kernel.mem, {});
    sim.run();
    ASSERT_EQ(tr.counters.size(), 1u);
    EXPECT_EQ(sim.intReg(tr.counters[0].lookups), 64u);
    EXPECT_GT(sim.intReg(tr.counters[0].hits), 0u);
}

TEST(SoftwareTransform, GenerationInvalidation)
{
    // An invalidate point must force fresh misses afterwards.
    SimMemory mem;
    const Addr out = mem.allocate(64);
    KernelBuilder b("gen");
    const IReg outReg = b.imm(static_cast<std::int64_t>(out));
    b.forRange(0, 3, 1, [&](IReg iter) {
        b.regionBegin(9);
        b.regionEnd(9);
        b.forRange(0, 8, 1, [&](IReg) {
            const FReg x = b.fimm(2.0f);
            b.regionBegin(1);
            const FReg y = b.fmul(x, x);
            b.regionEnd(1);
            b.stf(b.add(outReg, b.shl(iter, 2)), 0, y);
        });
    });
    const Program p = b.finish();

    MemoSpec spec;
    RegionMemoSpec region;
    region.regionId = 1;
    spec.regions.push_back(region);
    spec.invalidateAt[9] = {0};
    const SwTransformResult tr =
        SoftwareMemoTransform::apply(p, spec, mem);
    Simulator sim(tr.program, mem, {});
    sim.run();
    // 24 lookups; each of 3 generations begins with one miss.
    EXPECT_EQ(sim.intReg(tr.counters[0].lookups), 24u);
    EXPECT_EQ(sim.intReg(tr.counters[0].hits), 21u);
}

} // namespace
} // namespace axmemo
