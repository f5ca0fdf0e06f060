/**
 * @file
 * iACT/HPAC-style similarity-memoization transform tests
 * (compiler/iact_transform.hh): exact-match degeneracy at threshold 0,
 * monotone hit-rate growth with the threshold, pool striping, FIFO
 * eviction under capacity pressure, generation invalidation, config
 * validation, and the match rule at its edges (signed zeros, NaN, Inf,
 * denormals, the threshold boundary, integers compared as floats)
 * against a host reference.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/rng.hh"
#include "compiler/iact_transform.hh"
#include "isa/builder.hh"
#include "sim/simulator.hh"

namespace axmemo {
namespace {

/**
 * The MiniKernel of test_compiler.cc with a configurable input
 * pattern: per element, a hinted region computes two outputs from two
 * loaded floats. `jitter` spreads otherwise-identical inputs apart by
 * a small relative amount so similarity matching has something exact
 * matching cannot catch.
 */
struct JitterKernel
{
    SimMemory mem;
    Addr in = 0;
    Addr out = 0;
    unsigned n = 64;
    MemoSpec spec;

    explicit JitterKernel(double jitter = 0.0)
    {
        in = mem.allocate(n * 8);
        out = mem.allocate(n * 8);
        for (unsigned i = 0; i < n; ++i) {
            const float wobble =
                static_cast<float>(jitter) *
                static_cast<float>(i % 7) / 7.0f;
            mem.writeFloat(in + 8 * i,
                           (1.0f + static_cast<float>(i % 5)) *
                               (1.0f + wobble));
            mem.writeFloat(in + 8 * i + 4,
                           (2.0f + static_cast<float>(i % 3)) *
                               (1.0f + wobble));
        }
        RegionMemoSpec region;
        region.regionId = 1;
        spec.regions.push_back(region);
    }

    Program
    build() const
    {
        KernelBuilder b("jitter");
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

struct IactRun
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::vector<float> outputs;
};

IactRun
runIact(double jitter, const IactConfig &config)
{
    JitterKernel kernel(jitter);
    const SwTransformResult tr = IactTransform::apply(
        kernel.build(), kernel.spec, kernel.mem, config);
    Simulator sim(tr.program, kernel.mem, {});
    sim.run();
    IactRun run;
    for (const auto &counter : tr.counters) {
        run.lookups += sim.intReg(counter.lookups);
        run.hits += sim.intReg(counter.hits);
    }
    run.outputs = kernel.outputs();
    return run;
}

TEST(IactTransform, ThresholdZeroDegeneratesToExactMatch)
{
    // 15 distinct (x, y) pairs over 64 invocations; one pool with 32
    // entries holds them all, so exact matching hits 49 times — the
    // same count the software-LUT transform measures on this kernel.
    IactConfig config;
    config.threshold = 0.0;
    config.pools = 1;
    config.log2Entries = 5;
    const IactRun run = runIact(0.0, config);
    EXPECT_EQ(run.lookups, 64u);
    EXPECT_EQ(run.hits, 49u);

    // Exact matches replay exact outputs: byte-identical to baseline.
    JitterKernel base;
    {
        const Program p = base.build();
        Simulator sim(p, base.mem, {});
        sim.run();
    }
    EXPECT_EQ(run.outputs, base.outputs());
}

TEST(IactTransform, ThresholdMonotonicallyIncreasesHitRate)
{
    // With 3% input jitter, exact matching sees 64 distinct keys, but
    // a growing relative-error threshold folds ever more of them
    // together.
    IactConfig config;
    config.pools = 1;
    config.log2Entries = 7;
    std::uint64_t previous = 0;
    for (double threshold : {0.0, 0.01, 0.05, 0.2}) {
        config.threshold = threshold;
        const IactRun run = runIact(0.03, config);
        EXPECT_EQ(run.lookups, 64u);
        EXPECT_GE(run.hits, previous) << "threshold " << threshold;
        previous = run.hits;
    }
    // The loosest threshold must actually exploit the similarity the
    // tightest cannot.
    config.threshold = 0.0;
    const std::uint64_t exact = runIact(0.03, config).hits;
    config.threshold = 0.2;
    EXPECT_GT(runIact(0.03, config).hits, exact);
}

TEST(IactTransform, IntegerInputsMatchApproximatelyToo)
{
    // An integer-input region under a fuzzy threshold: values within
    // the relative band hit, values outside miss.
    SimMemory mem;
    const unsigned n = 32;
    const Addr in = mem.allocate(n * 8);
    const Addr out = mem.allocate(n * 8);
    for (unsigned i = 0; i < n; ++i)
        mem.write64(in + 8 * i, 1000 + (i % 8)); // within 0.7%

    KernelBuilder b("ints");
    const IReg inReg = b.imm(static_cast<std::int64_t>(in));
    const IReg outReg = b.imm(static_cast<std::int64_t>(out));
    b.forRange(0, n, 1, [&](IReg i) {
        const IReg addr = b.add(inReg, b.shl(i, 3));
        const IReg x = b.ld(addr, 0, 8);
        b.regionBegin(1);
        const IReg y = b.mul(x, x);
        b.regionEnd(1);
        b.st(b.add(outReg, b.shl(i, 3)), 0, y, 8);
    });
    MemoSpec spec;
    RegionMemoSpec region;
    region.regionId = 1;
    spec.regions.push_back(region);

    IactConfig config;
    config.pools = 1;
    config.log2Entries = 5;
    config.threshold = 0.01; // 1% band swallows the 0.7% spread
    const SwTransformResult tr =
        IactTransform::apply(b.finish(), spec, mem, config);
    Simulator sim(tr.program, mem, {});
    sim.run();
    EXPECT_EQ(sim.intReg(tr.counters[0].lookups), 32u);
    EXPECT_EQ(sim.intReg(tr.counters[0].hits), 31u);
}

TEST(IactTransform, PoolsStripeInvocations)
{
    // Striped across 4 pools the table still works; each pool sees
    // every 4th invocation, so reuse drops but never disappears.
    IactConfig config;
    config.threshold = 0.0;
    config.pools = 4;
    config.log2Entries = 5;
    const IactRun run = runIact(0.0, config);
    EXPECT_EQ(run.lookups, 64u);
    EXPECT_GT(run.hits, 0u);
    IactConfig onePool = config;
    onePool.pools = 1;
    EXPECT_LE(run.hits, runIact(0.0, onePool).hits);
}

TEST(IactTransform, FifoEvictionUnderCapacityPressure)
{
    // 15 distinct keys against 2^3 = 8 slots: the FIFO rotor must
    // evict, costing hits relative to a table that fits them all.
    IactConfig small;
    small.threshold = 0.0;
    small.pools = 1;
    small.log2Entries = 3;
    IactConfig big = small;
    big.log2Entries = 5;
    const IactRun smallRun = runIact(0.0, small);
    const IactRun bigRun = runIact(0.0, big);
    EXPECT_EQ(smallRun.lookups, 64u);
    EXPECT_LT(smallRun.hits, bigRun.hits);
    // Outputs stay exact either way: eviction only forgets, never
    // corrupts.
    JitterKernel base;
    {
        const Program p = base.build();
        Simulator sim(p, base.mem, {});
        sim.run();
    }
    EXPECT_EQ(smallRun.outputs, base.outputs());
}

TEST(IactTransform, GenerationInvalidationForcesMisses)
{
    // Same structure as the software-transform invalidation test: a
    // sentinel region 9 bumps the generation, so each of the 3 outer
    // iterations re-misses its first inner lookup.
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

    IactConfig config;
    config.pools = 1;
    config.log2Entries = 4;
    const SwTransformResult tr =
        IactTransform::apply(p, spec, mem, config);
    Simulator sim(tr.program, mem, {});
    sim.run();
    EXPECT_EQ(sim.intReg(tr.counters[0].lookups), 24u);
    EXPECT_EQ(sim.intReg(tr.counters[0].hits), 21u);
}

TEST(IactTransform, TaskOverheadCostsInstructions)
{
    IactConfig plain;
    plain.pools = 1;
    IactConfig taxed = plain;
    taxed.taskOverheadInsts = 50;
    JitterKernel a, bk;
    const SwTransformResult trA =
        IactTransform::apply(a.build(), a.spec, a.mem, plain);
    const SwTransformResult trB =
        IactTransform::apply(bk.build(), bk.spec, bk.mem, taxed);
    Simulator simA(trA.program, a.mem, {});
    Simulator simB(trB.program, bk.mem, {});
    EXPECT_GT(simB.run().uops, simA.run().uops + 64 * 40);
}

TEST(IactTransform, RejectsInvalidConfig)
{
    const JitterKernel kernel;
    const Program p = kernel.build();
    const auto applyWith = [&](IactConfig config) {
        SimMemory mem;
        IactTransform::apply(p, kernel.spec, mem, config);
    };
    IactConfig config;
    config.log2Entries = 0;
    EXPECT_THROW(applyWith(config), AxException);
    config = {};
    config.log2Entries = 9;
    EXPECT_THROW(applyWith(config), AxException);
    config = {};
    config.pools = 3;
    EXPECT_THROW(applyWith(config), AxException);
    config = {};
    config.pools = 512;
    EXPECT_THROW(applyWith(config), AxException);
    config = {};
    config.threshold = -0.5;
    EXPECT_THROW(applyWith(config), AxException);
    config = {};
    config.threshold = std::numeric_limits<double>::infinity();
    EXPECT_THROW(applyWith(config), AxException);
}

/**
 * Whether a one-pool iACT table that stored the tuple for @p stored
 * hits when probed with @p input: a one-input region runs twice, the
 * first invocation misses and fills, the second probes.
 */
template <typename T>
bool
probeHits(T stored, T input, double threshold)
{
    constexpr bool isFloat = std::is_same_v<T, float>;
    SimMemory mem;
    const Addr in = mem.allocate(16);
    const Addr out = mem.allocate(16);
    if constexpr (isFloat) {
        mem.writeFloat(in, stored);
        mem.writeFloat(in + 8, input);
    } else {
        mem.write64(in, static_cast<std::uint64_t>(stored));
        mem.write64(in + 8, static_cast<std::uint64_t>(input));
    }

    KernelBuilder b("edge");
    const IReg inReg = b.imm(static_cast<std::int64_t>(in));
    const IReg outReg = b.imm(static_cast<std::int64_t>(out));
    b.forRange(0, 2, 1, [&](IReg i) {
        const IReg addr = b.add(inReg, b.shl(i, 3));
        const IReg oaddr = b.add(outReg, b.shl(i, 3));
        if constexpr (isFloat) {
            const FReg x = b.ldf(addr, 0);
            b.regionBegin(1);
            const FReg y = b.fadd(x, b.fimm(1.0f));
            b.regionEnd(1);
            b.stf(oaddr, 0, y);
        } else {
            const IReg x = b.ld(addr, 0, 8);
            b.regionBegin(1);
            const IReg y = b.add(x, 1);
            b.regionEnd(1);
            b.st(oaddr, 0, y, 8);
        }
    });
    MemoSpec spec;
    RegionMemoSpec region;
    region.regionId = 1;
    spec.regions.push_back(region);

    IactConfig config;
    config.threshold = threshold;
    config.pools = 1;
    const SwTransformResult tr =
        IactTransform::apply(b.finish(), spec, mem, config);
    Simulator sim(tr.program, mem, {});
    sim.run();
    EXPECT_EQ(sim.intReg(tr.counters[0].lookups), 2u);
    return sim.intReg(tr.counters[0].hits) == 1;
}

/** The match rule on the host, in single precision like the emitted
 * code: Feq at threshold 0, else |in - st| <= |st| * float(threshold),
 * which is false when either side is NaN. */
bool
hostMatches(float stored, float input, double threshold)
{
    if (threshold == 0.0)
        return input == stored;
    return std::fabs(input - stored) <=
           std::fabs(stored) * static_cast<float>(threshold);
}

/** Integers: Seq at threshold 0, else the float rule after int->float
 * conversion. */
bool
hostMatches(std::int64_t stored, std::int64_t input, double threshold)
{
    if (threshold == 0.0)
        return input == stored;
    return hostMatches(static_cast<float>(stored),
                       static_cast<float>(input), threshold);
}

TEST(IactTransform, MatchRuleEdgesAgreeWithHostReference)
{
    constexpr float inf = std::numeric_limits<float>::infinity();
    constexpr float nan = std::numeric_limits<float>::quiet_NaN();
    constexpr float denorm = std::numeric_limits<float>::denorm_min();
    constexpr float tiny = std::numeric_limits<float>::min() / 2;
    constexpr std::int64_t big = std::int64_t{1} << 24;

    // The documented edges, pinned outright.
    EXPECT_TRUE(probeHits(0.0f, -0.0f, 0.0));   // Feq: -0 == +0
    EXPECT_TRUE(probeHits(-0.0f, 0.0f, 0.01));  // zero difference
    EXPECT_FALSE(probeHits(0.0f, denorm, 0.5)); // stored 0: no slack
    EXPECT_FALSE(probeHits(nan, nan, 0.0));
    EXPECT_FALSE(probeHits(nan, nan, 0.01));
    EXPECT_FALSE(probeHits(1.0f, nan, 0.01));
    EXPECT_TRUE(probeHits(inf, inf, 0.0));
    EXPECT_FALSE(probeHits(inf, inf, 0.01));    // Inf - Inf is NaN
    EXPECT_TRUE(probeHits(inf, 1.0f, 0.01));    // infinite tolerance
    EXPECT_FALSE(probeHits(1.0f, inf, 0.01));
    EXPECT_FALSE(probeHits(denorm, 2 * denorm, 0.5)); // tolerance -> 0
    EXPECT_TRUE(probeHits(big, big + 1, 0.01)); // same float
    EXPECT_FALSE(probeHits(big, big + 1, 0.0)); // Seq on the integers

    // Every edge, at several thresholds, against the host rule.
    const float stored = 100.0f;
    const float edge = stored + stored * 0.01f;
    const std::vector<std::pair<float, float>> floats = {
        {0.0f, 0.0f},       {0.0f, -0.0f},
        {-0.0f, denorm},    {0.0f, 1e-30f},
        {nan, nan},         {nan, 1.0f},
        {1.0f, nan},        {inf, inf},
        {-inf, -inf},       {inf, -inf},
        {inf, 1e38f},       {-inf, 0.0f},
        {1.0f, inf},        {denorm, denorm},
        {denorm, 2 * denorm}, {tiny, tiny * 1.005f},
        {stored, edge},     {stored, std::nextafter(edge, inf)},
        {stored, std::nextafter(edge, 0.0f)},
        {-stored, -edge},   {-stored, -std::nextafter(edge, inf)}};
    const std::vector<std::pair<std::int64_t, std::int64_t>> ints = {
        {big, big + 1}, {big + 1, big}, {0, 0},     {-5, 5},
        {1000, 1010},   {1000, 1011},   {-1000, -990}, {7, 7}};
    for (const double threshold : {0.0, 0.001, 0.01, 0.5, 1.0}) {
        for (const auto &[st, in] : floats)
            EXPECT_EQ(probeHits(st, in, threshold),
                      hostMatches(st, in, threshold))
                << "stored " << st << " input " << in << " threshold "
                << threshold;
        for (const auto &[st, in] : ints)
            EXPECT_EQ(probeHits(st, in, threshold),
                      hostMatches(st, in, threshold))
                << "stored " << st << " input " << in << " threshold "
                << threshold;
    }
}

TEST(IactTransform, MatchRuleAgreesWithHostOnRandomTriples)
{
    Rng rng(0x1ac7);
    const double thresholds[] = {0.0, 0.001, 0.01, 0.1, 0.5};
    unsigned hits = 0;
    unsigned misses = 0;
    for (unsigned k = 0; k < 300; ++k) {
        const double threshold = thresholds[rng.below(5)];
        // Inputs straddle the tolerance band: 0 to 2x the threshold
        // (or 1e-3 at threshold 0) away from the stored value.
        const double spread = threshold > 0 ? 2 * threshold : 1e-3;
        const float stored = static_cast<float>(
            rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-3, 6)));
        const float input = rng.below(4) == 0
                                ? stored
                                : static_cast<float>(
                                      stored *
                                      (1 + rng.uniform(-spread, spread)));
        const bool expected = hostMatches(stored, input, threshold);
        EXPECT_EQ(probeHits(stored, input, threshold), expected)
            << "stored " << stored << " input " << input
            << " threshold " << threshold;
        ++(expected ? hits : misses);

        const auto istored = static_cast<std::int64_t>(
            rng.uniform(-1e8, 1e8));
        const auto iinput = static_cast<std::int64_t>(
            static_cast<double>(istored) *
            (1 + rng.uniform(-spread, spread)));
        EXPECT_EQ(probeHits(istored, iinput, threshold),
                  hostMatches(istored, iinput, threshold))
            << "stored " << istored << " input " << iinput
            << " threshold " << threshold;
    }
    // The triples exercise both sides of the rule.
    EXPECT_GT(hits, 50u);
    EXPECT_GT(misses, 50u);
}

} // namespace
} // namespace axmemo
