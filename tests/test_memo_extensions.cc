/**
 * @file
 * Tests for the memoization unit's extension features: the adaptive
 * (runtime) truncation controller of Section 3.1's "dynamic approach"
 * and the L2 LUT content policies (inclusive vs victim).
 */

#include <gtest/gtest.h>

#include "common/bits.hh"
#include "common/rng.hh"
#include "core/experiment.hh"
#include "memo/memo_unit.hh"

namespace axmemo {
namespace {

MemoUnitConfig
adaptiveConfig()
{
    MemoUnitConfig config;
    config.quality.enabled = false;
    config.adaptive.enabled = true;
    config.adaptive.profilePeriod = 20;
    config.adaptive.profileLength = 5;
    config.adaptive.targetError = 0.01;
    config.adaptive.maxExtraBits = 8;
    return config;
}

/** Drive one lookup/update round through the unit. */
bool
roundTrip(MemoizationUnit &unit, std::uint64_t input, unsigned trunc,
          float result)
{
    unit.feed(0, 0, input, 4, trunc, 0);
    const MemoLookupResult r = unit.lookup(0, 0, 10);
    if (!r.hit)
        unit.update(0, 0, floatBits(result));
    return r.hit;
}

TEST(AdaptiveTruncation, RaisesWhenErrorIsTinyAndHitRateDeficient)
{
    MemoizationUnit unit(adaptiveConfig());
    // Half the stream repeats one value (hits with zero error); the
    // other half is near-unique low-bit jitter that deeper truncation
    // would merge. Hit rate sits below the target, error below it:
    // the controller must deepen.
    Rng rng(11);
    for (std::uint64_t i = 0; i < 4000; ++i) {
        const float v = (i % 2 == 0)
                            ? 100.0f
                            : 100.0f + static_cast<float>(
                                           rng.uniform(0.0, 1e-3));
        roundTrip(unit, floatBits(v), 4, 1.0f);
    }
    EXPECT_GT(unit.extraTruncBits(0), 0u);
    EXPECT_GT(unit.stats().adaptiveRaises, 0u);
    EXPECT_GT(unit.stats().profiledHits, 0u);
    EXPECT_LE(unit.extraTruncBits(0), 8u);
}

TEST(AdaptiveTruncation, HoldsWhenHitRateAlreadyHigh)
{
    // With near-total reuse at the current level, deepening would only
    // re-key the LUT: the controller must hold.
    MemoizationUnit unit(adaptiveConfig());
    for (std::uint64_t i = 0; i < 4000; ++i)
        roundTrip(unit, floatBits(100.0f + (i % 3) * 1e-4f), 4, 1.0f);
    EXPECT_EQ(unit.extraTruncBits(0), 0u);
}

TEST(AdaptiveTruncation, ExactInputsNeverDeepened)
{
    // truncBits == 0 marks an input as exact; the controller must not
    // approximate it even after it raises the extra level.
    MemoizationUnit unit(adaptiveConfig());
    Rng rng(3);
    for (std::uint64_t i = 0; i < 4000; ++i) {
        const float v = (i % 2 == 0)
                            ? 100.0f
                            : 100.0f + static_cast<float>(
                                           rng.uniform(0.0, 1e-3));
        roundTrip(unit, floatBits(v), 4, 1.0f);
    }
    ASSERT_GT(unit.extraTruncBits(0), 0u);

    // Two inputs differing only in low bits, streamed with n = 0:
    // must remain distinct keys.
    unit.feed(1, 0, 0x42400001, 4, 0, 0);
    unit.lookup(1, 0, 10);
    unit.update(1, 0, floatBits(1.0f));
    unit.feed(1, 0, 0x42400002, 4, 0, 20);
    EXPECT_FALSE(unit.lookup(1, 0, 30).hit);
    unit.update(1, 0, floatBits(2.0f));
}

TEST(AdaptiveTruncation, LowersWhenErrorGrows)
{
    // Continuous inputs over a wide range: at the static level nothing
    // hits, so the escalation path deepens truncation — but deep levels
    // alias inputs with very different results. Profiling must observe
    // the error and back the level off rather than pin it at max.
    MemoUnitConfig config = adaptiveConfig();
    config.adaptive.targetError = 0.0002; // tight bound
    MemoizationUnit unit(config);
    Rng rng(4);
    for (std::uint64_t i = 0; i < 40000; ++i) {
        const float in =
            64.0f + static_cast<float>(rng.uniform(0.0, 64.0));
        const float out = in * 3.0f;
        roundTrip(unit, floatBits(in), 6, out);
    }
    EXPECT_GT(unit.stats().adaptiveRaises, 0u);
    EXPECT_GT(unit.stats().adaptiveLowers, 0u);
}

TEST(AdaptiveTruncation, DisabledByDefault)
{
    MemoUnitConfig config;
    config.quality.enabled = false;
    MemoizationUnit unit(config);
    for (std::uint64_t i = 0; i < 2000; ++i)
        roundTrip(unit, floatBits(100.0f), 4, 1.0f);
    EXPECT_EQ(unit.extraTruncBits(0), 0u);
    EXPECT_EQ(unit.stats().profiledHits, 0u);
}

TEST(AdaptiveTruncation, ImprovesHitRateOnFineGrainedData)
{
    // End-to-end: a statically under-truncated sobel gains hits when
    // the runtime controller deepens the level.
    auto workload = makeWorkload("sobel");
    ExperimentConfig config;
    config.dataset.scale = 0.05;
    config.lut = {8 * 1024, 512 * 1024};
    config.truncOverride = 8; // too shallow for the sensor jitter

    const RunResult withoutAdaptive =
        ExperimentRunner(config).run(*workload, "axmemo");

    config.adaptive.enabled = true;
    config.adaptive.profilePeriod = 500;
    config.adaptive.profileLength = 30;
    config.adaptive.targetError = 0.02;
    const RunResult withAdaptive =
        ExperimentRunner(config).run(*workload, "axmemo");

    EXPECT_GT(withAdaptive.stats.memo.adaptiveRaises, 0u);
    EXPECT_GT(withAdaptive.hitRate(), withoutAdaptive.hitRate());
}

// ----------------------------------------------------- L2 LUT policies

TEST(L2Policy, VictimKeepsLevelsDisjoint)
{
    MemoUnitConfig config;
    config.quality.enabled = false;
    config.l1Lut.sizeBytes = 64; // one 8-way set
    config.l2LutBytes = 64 * 1024;
    config.l2Policy = L2LutPolicy::Victim;
    MemoizationUnit unit(config);

    // Fill beyond L1: victims spill to L2.
    for (std::uint64_t k = 0; k < 16; ++k) {
        unit.feed(0, 0, k, 4, 0, 0);
        EXPECT_FALSE(unit.lookup(0, 0, 10).hit);
        unit.update(0, 0, k);
    }
    EXPECT_GT(unit.l2()->validCount(), 0u);

    // Re-touch an old key: served by L2, moved back up (and out of L2).
    unit.feed(0, 0, 0, 4, 0, 100);
    const MemoLookupResult r = unit.lookup(0, 0, 110);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.fromL2);
    EXPECT_EQ(r.data, 0u);
}

TEST(L2Policy, VictimRetainsMoreUniqueKeysThanInclusive)
{
    // With exclusive contents, effective capacity = L1 + L2; inclusive
    // duplicates L1's contents inside L2. Fill with more keys than L2
    // alone can hold, then count how many still hit on a second pass.
    auto secondPassHits = [](L2LutPolicy policy) {
        MemoUnitConfig config;
        config.quality.enabled = false;
        config.l1Lut.sizeBytes = 1024;  // 128 entries
        config.l2LutBytes = 1024;       // 128 entries
        config.l2Policy = policy;
        MemoizationUnit unit(config);
        auto touch = [&unit](std::uint64_t k) {
            unit.feed(0, 0, k * 0x9e3779b9ull, 4, 0, 0);
            const bool hit = unit.lookup(0, 0, 10).hit;
            if (!hit)
                unit.update(0, 0, k);
            return hit;
        };
        for (std::uint64_t k = 0; k < 256; ++k)
            touch(k);
        unsigned hits = 0;
        for (std::uint64_t k = 0; k < 256; ++k)
            hits += touch(k);
        return hits;
    };
    EXPECT_GT(secondPassHits(L2LutPolicy::Victim),
              secondPassHits(L2LutPolicy::Inclusive));
}

TEST(L2Policy, BothPoliciesFunctionallyCorrect)
{
    for (L2LutPolicy policy :
         {L2LutPolicy::Inclusive, L2LutPolicy::Victim}) {
        MemoUnitConfig config;
        config.quality.enabled = false;
        config.l1Lut.sizeBytes = 128;
        config.l2LutBytes = 8 * 1024;
        config.l2Policy = policy;
        MemoizationUnit unit(config);
        // Every stored key must return its own value, whatever level
        // serves it.
        for (std::uint64_t k = 0; k < 64; ++k) {
            unit.feed(0, 0, k, 4, 0, 0);
            if (!unit.lookup(0, 0, 10).hit)
                unit.update(0, 0, k + 7);
        }
        for (std::uint64_t k = 0; k < 64; ++k) {
            unit.feed(0, 0, k, 4, 0, 100);
            const MemoLookupResult r = unit.lookup(0, 0, 110);
            ASSERT_TRUE(r.hit) << "policy "
                               << static_cast<int>(policy) << " key "
                               << k;
            ASSERT_EQ(r.data, k + 7);
        }
    }
}

} // namespace
} // namespace axmemo
