/**
 * @file
 * Cross-cutting property sweeps (parameterized gtest): invariants that
 * must hold across configuration axes rather than at single points —
 * LUT geometry, truncation monotonicity, CRC streaming-split
 * invariance, and end-to-end workload determinism under every execution
 * mode.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hh"
#include "core/experiment.hh"
#include "crc/crc.hh"
#include "memo/memo_unit.hh"

namespace axmemo {
namespace {

// ---------------------------------------------------- CRC split points

class CrcSplitTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CrcSplitTest, AnySplitOfTheStreamHashesIdentically)
{
    const auto [width, split] = GetParam();
    const CrcEngine engine(CrcSpec::ofWidth(width));
    std::uint8_t data[32];
    Rng rng(split * 131 + width);
    for (auto &byte : data)
        byte = static_cast<std::uint8_t>(rng.below(256));

    std::uint64_t state = engine.initial();
    state = engine.update(state, data, split);
    state = engine.update(state, data + split, sizeof(data) - split);
    EXPECT_EQ(engine.finalize(state),
              engine.compute(data, sizeof(data)));
}

INSTANTIATE_TEST_SUITE_P(
    Splits, CrcSplitTest,
    ::testing::Combine(::testing::Values(16u, 32u, 64u),
                       ::testing::Values(0u, 1u, 7u, 16u, 31u)));

// ------------------------------------------- truncation monotonicity

class TruncMonotonicTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TruncMonotonicTest, DeeperTruncationNeverLosesHits)
{
    // On a fixed input stream, the set of colliding (merged) keys can
    // only grow with the truncation level, so hits are monotonically
    // non-decreasing.
    const unsigned bits = GetParam();
    auto hitsAt = [](unsigned trunc) {
        MemoUnitConfig config;
        config.quality.enabled = false;
        MemoizationUnit unit(config);
        Rng rng(77);
        std::uint64_t hits = 0;
        for (int i = 0; i < 3000; ++i) {
            const float v = 100.0f + static_cast<float>(
                                         rng.uniform(0.0, 8.0));
            unit.feed(0, 0, floatBits(v), 4, trunc, 0);
            if (unit.lookup(0, 0, 10).hit)
                ++hits;
            else
                unit.update(0, 0, 1);
        }
        return hits;
    };
    EXPECT_LE(hitsAt(bits), hitsAt(bits + 2));
}

INSTANTIATE_TEST_SUITE_P(Levels, TruncMonotonicTest,
                         ::testing::Values(0u, 4u, 8u, 12u, 16u));

// ------------------------------------------------- LUT geometry sweep

class LutGeometryTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 unsigned>>
{
};

TEST_P(LutGeometryTest, StoreThenRetrieveWithinCapacity)
{
    const auto [size, dataBytes] = GetParam();
    LookupTable lut({.name = "sweep", .sizeBytes = size,
                     .dataBytes = dataBytes});
    // Fill to exactly half capacity with well-spread keys: every entry
    // must be retrievable (no premature evictions).
    const std::uint64_t entries =
        static_cast<std::uint64_t>(lut.numSets()) * lut.ways();
    for (std::uint64_t k = 0; k < entries / 2; ++k)
        lut.insert(0, k, k * 3);
    for (std::uint64_t k = 0; k < entries / 2; ++k) {
        const auto hit = lut.lookup(0, k);
        ASSERT_TRUE(hit.has_value()) << "key " << k;
        EXPECT_EQ(*hit, k * 3);
    }
    EXPECT_EQ(lut.validCount(), entries / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LutGeometryTest,
    ::testing::Combine(::testing::Values(256u, 1024u, 4096u, 16384u),
                       ::testing::Values(4u, 8u)));

// ------------------------------------- mode determinism across reruns

/** The five builtin backends that predate the seam, indexing
 * kLegacyBackends. The suite's test names print the parameter, and a
 * scoped enum prints as its bytes, so these names stay as they were. */
enum class LegacyBackend
{
    Baseline,
    AxMemo,
    AxMemoNoTrunc,
    SoftwareLut,
    Atm
};

constexpr const char *kLegacyBackends[] = {
    "baseline", "axmemo", "axmemo-notrunc", "software-lut", "atm"};

const char *
backendName(LegacyBackend backend)
{
    return kLegacyBackends[static_cast<int>(backend)];
}

class ModeDeterminismTest : public ::testing::TestWithParam<LegacyBackend>
{
};

TEST_P(ModeDeterminismTest, IdenticalRunsBitIdentical)
{
    auto run = [&] {
        auto workload = makeWorkload("kmeans");
        ExperimentConfig config;
        config.dataset.scale = 0.01;
        config.lut = {4 * 1024, 64 * 1024};
        const RunResult r =
            ExperimentRunner(config).run(*workload,
                                         backendName(GetParam()));
        return std::make_tuple(r.stats.cycles, r.stats.uops, r.hits,
                               r.outputs);
    };
    EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ModeDeterminismTest,
    ::testing::Values(LegacyBackend::Baseline, LegacyBackend::AxMemo,
                      LegacyBackend::AxMemoNoTrunc,
                      LegacyBackend::SoftwareLut, LegacyBackend::Atm),
    [](const ::testing::TestParamInfo<LegacyBackend> &info) {
        std::string name = backendName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// ----------------------------------------- hit rate grows with reuse

class ReuseSweepTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ReuseSweepTest, FewerDistinctKeysMoreHits)
{
    const unsigned pool = GetParam();
    MemoUnitConfig config;
    config.quality.enabled = false;
    MemoizationUnit unit(config);
    Rng rng(5);
    std::uint64_t hits = 0;
    const int lookups = 4000;
    for (int i = 0; i < lookups; ++i) {
        unit.feed(0, 0, rng.below(pool) * 2654435761ull, 4, 0, 0);
        if (unit.lookup(0, 0, 10).hit)
            ++hits;
        else
            unit.update(0, 0, 1);
    }
    const double hitRate =
        static_cast<double>(hits) / static_cast<double>(lookups);
    // With an 8 KB LUT (2048 entries), pools within capacity achieve
    // roughly 1 - pool/lookups; outside capacity the rate collapses.
    if (pool <= 1024) {
        EXPECT_GT(hitRate, 0.9 * (1.0 - static_cast<double>(pool) /
                                            lookups));
    }
    if (pool >= 1u << 16) {
        EXPECT_LT(hitRate, 0.1);
    }
}

INSTANTIATE_TEST_SUITE_P(Pools, ReuseSweepTest,
                         ::testing::Values(4u, 64u, 512u, 1024u,
                                           1u << 16, 1u << 20));

} // namespace
} // namespace axmemo
