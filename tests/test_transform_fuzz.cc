/**
 * @file
 * Property-based testing of the code-generation transforms: randomized
 * straight-line float kernels with varying input/output arity are
 * generated, wrapped in a per-item loop, and run four ways — baseline,
 * hardware-memoized (trunc 0), software-memoized, and iACT at threshold
 * 0. Every memoized run must produce outputs bit-identical to the
 * baseline's (trunc-0 memoization is exact absent hash collisions,
 * which do not occur at these scales, and a zero threshold makes iACT
 * an exact match), and the hardware and iACT runs must exercise real
 * hits. ThreeWayEquivalence covers the first three, IactExactEquivalence
 * the fourth.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "compiler/iact_transform.hh"
#include "compiler/software_transform.hh"
#include "compiler/transform.hh"
#include "isa/builder.hh"
#include "sim/simulator.hh"

namespace axmemo {
namespace {

struct FuzzCase
{
    unsigned seed;
    unsigned numInputs;  // 1..6
    unsigned numOutputs; // 1..2
    unsigned bodyOps;    // random ops inside the region
};

/** Random kernel: loop over items, region computes outputs from inputs. */
class FuzzKernel
{
  public:
    static constexpr unsigned kItems = 48;

    explicit FuzzKernel(const FuzzCase &fc) : fc_(fc)
    {
        Rng rng(fc.seed);
        in_ = mem_.allocate(kItems * 4 * fc.numInputs);
        out_ = mem_.allocate(kItems * 4 * fc.numOutputs);
        // A small pool of distinct item rows so memoization gets reuse.
        const unsigned pool = 6;
        std::vector<float> rows(pool * fc.numInputs);
        for (auto &v : rows)
            v = static_cast<float>(rng.uniform(0.5, 4.0));
        for (unsigned i = 0; i < kItems; ++i) {
            const unsigned row =
                static_cast<unsigned>(rng.below(pool));
            for (unsigned k = 0; k < fc.numInputs; ++k)
                mem_.writeFloat(in_ + 4 * (i * fc.numInputs + k),
                                rows[row * fc.numInputs + k]);
        }
    }

    Program
    build() const
    {
        KernelBuilder b("fuzz");
        Rng rng(fc_.seed * 31 + 7);
        const IReg inReg = b.imm(static_cast<std::int64_t>(in_));
        const IReg outReg = b.imm(static_cast<std::int64_t>(out_));

        b.forRange(0, kItems, 1, [&](IReg i) {
            const IReg ia =
                b.add(inReg, b.mul(i, 4 * fc_.numInputs));
            std::vector<FReg> values;
            for (unsigned k = 0; k < fc_.numInputs; ++k)
                values.push_back(b.ldf(ia, 4 * k));

            b.regionBegin(1);
            // Random dataflow over safe ops (no div-by-uncontrolled,
            // no domain errors): results stay finite.
            for (unsigned op = 0; op < fc_.bodyOps; ++op) {
                const FReg a =
                    values[rng.below(values.size())];
                const FReg c =
                    values[rng.below(values.size())];
                switch (rng.below(6)) {
                  case 0: values.push_back(b.fadd(a, c)); break;
                  case 1: values.push_back(b.fsub(a, c)); break;
                  case 2: values.push_back(b.fmul(a, c)); break;
                  case 3:
                    values.push_back(
                        b.fdiv(a, b.fadd(b.fabs(c), b.fimm(1.0f))));
                    break;
                  case 4:
                    values.push_back(b.fsqrt(b.fabs(a)));
                    break;
                  default:
                    values.push_back(b.fmin(a, c));
                    break;
                }
            }
            // Outputs: the last values, normalized into a bounded range
            // so packing/unpacking round-trips exactly.
            std::vector<FReg> outs;
            for (unsigned k = 0; k < fc_.numOutputs; ++k) {
                const FReg raw = values[values.size() - 1 - k];
                outs.push_back(
                    b.fdiv(raw, b.fadd(b.fabs(raw), b.fimm(1.0f))));
            }
            b.regionEnd(1);

            const IReg oa =
                b.add(outReg, b.mul(i, 4 * fc_.numOutputs));
            for (unsigned k = 0; k < fc_.numOutputs; ++k)
                b.stf(oa, 4 * k, outs[k]);
        });
        return b.finish();
    }

    MemoSpec
    spec() const
    {
        MemoSpec s;
        RegionMemoSpec region;
        region.regionId = 1;
        s.regions.push_back(region);
        return s;
    }

    SimMemory &memory() { return mem_; }

    std::vector<float>
    outputs() const
    {
        return mem_.readFloats(out_, kItems * fc_.numOutputs);
    }

  private:
    FuzzCase fc_;
    SimMemory mem_;
    Addr in_ = 0;
    Addr out_ = 0;
};

class TransformFuzzTest : public ::testing::TestWithParam<FuzzCase>
{
};

/** The unmemoized kernel's outputs. */
std::vector<float>
baselineOutputs(const FuzzCase &fc)
{
    FuzzKernel base(fc);
    const Program p = base.build();
    Simulator sim(p, base.memory(), {});
    sim.run();
    return base.outputs();
}

TEST_P(TransformFuzzTest, ThreeWayEquivalence)
{
    const FuzzCase &fc = GetParam();
    const std::vector<float> base = baselineOutputs(fc);

    // Hardware memoization, trunc 0.
    FuzzKernel hw(fc);
    {
        const TransformResult tr =
            MemoTransform::apply(hw.build(), hw.spec());
        SimConfig config;
        config.memoEnabled = true;
        config.memo.l1Lut.dataBytes = tr.dataBytes;
        config.memo.quality.enabled = false;
        Simulator sim(tr.program, hw.memory(), config);
        const SimStats &stats = sim.run();
        EXPECT_EQ(stats.memo.lookups, FuzzKernel::kItems);
        EXPECT_GT(stats.memo.hits(), 0u);
        // At most 6 distinct rows -> at most 6 misses.
        EXPECT_LE(stats.memo.misses, 6u);
    }

    // Software memoization.
    FuzzKernel sw(fc);
    {
        const SwTransformResult tr = SoftwareMemoTransform::apply(
            sw.build(), sw.spec(), sw.memory());
        Simulator sim(tr.program, sw.memory(), {});
        sim.run();
        EXPECT_EQ(sim.intReg(tr.counters[0].lookups),
                  FuzzKernel::kItems);
    }

    EXPECT_EQ(base, hw.outputs()) << "hw diverged";
    EXPECT_EQ(base, sw.outputs()) << "sw diverged";
}

TEST_P(TransformFuzzTest, IactExactEquivalence)
{
    const FuzzCase &fc = GetParam();
    FuzzKernel iact(fc);
    IactConfig config;
    config.threshold = 0.0;
    const SwTransformResult tr = IactTransform::apply(
        iact.build(), iact.spec(), iact.memory(), config);
    Simulator sim(tr.program, iact.memory(), {});
    sim.run();
    ASSERT_EQ(tr.counters.size(), 1u);
    EXPECT_EQ(sim.intReg(tr.counters[0].lookups), FuzzKernel::kItems);
    EXPECT_GT(sim.intReg(tr.counters[0].hits), 0u);
    EXPECT_EQ(baselineOutputs(fc), iact.outputs()) << "iact diverged";
}

std::vector<FuzzCase>
makeCases()
{
    std::vector<FuzzCase> cases;
    unsigned seed = 1000;
    for (unsigned inputs : {1u, 2u, 3u, 4u, 6u}) {
        for (unsigned outputs : {1u, 2u}) {
            for (unsigned ops : {3u, 8u, 16u})
                cases.push_back({seed++, inputs, outputs, ops});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Random, TransformFuzzTest, ::testing::ValuesIn(makeCases()),
    [](const ::testing::TestParamInfo<FuzzCase> &info) {
        return "seed" + std::to_string(info.param.seed) + "_in" +
               std::to_string(info.param.numInputs) + "_out" +
               std::to_string(info.param.numOutputs) + "_ops" +
               std::to_string(info.param.bodyOps);
    });

} // namespace
} // namespace axmemo
