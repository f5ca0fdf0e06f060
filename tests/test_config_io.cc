/**
 * @file
 * Canonical config serialization (core/config_io.hh):
 *  - every field participates in the serialization (mutating any field
 *    changes the canonical string), so two distinct configs can never
 *    collide onto one sweep cache key;
 *  - an aggregate field-count guard that fails when a struct grows a
 *    field the serializer (and these mutators) do not cover yet;
 *  - the emitted tokens are lossless: every double reads back
 *    bit-exactly through strtod(), u64 values above 2^53 appear digit
 *    for digit, and enums are written by name.
 * Plus the structured error of memoBackends().resolve() on unknown
 * backend names.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/config_io.hh"
#include "core/memo_backends.hh"

namespace axmemo {
namespace {

// ---------------------------------------------------------------------
// Aggregate field counting (C++20): probe how many initializers an
// aggregate accepts. Grows with the struct, independent of padding.

struct AnyField
{
    template <typename T>
    constexpr operator T() const;
};

template <typename T, typename... Args>
constexpr std::size_t
fieldCount()
{
    if constexpr (requires { T{Args{}..., AnyField{}}; })
        return fieldCount<T, Args..., AnyField>();
    else
        return sizeof...(Args);
}

// When one of these fails: a field was added (or removed). Update
// the serializer in core/config_io.cc, the mutator list below, and
// then the expected count.
TEST(ConfigFieldGuard, StructFieldCountsMatchSerializer)
{
    EXPECT_EQ((fieldCount<WorkloadParams>()), 3u);
    EXPECT_EQ((fieldCount<LutSetup>()), 2u);
    EXPECT_EQ((fieldCount<CacheConfig>()), 5u);
    EXPECT_EQ((fieldCount<DramConfig>()), 5u);
    EXPECT_EQ((fieldCount<HierarchyConfig>()), 3u);
    EXPECT_EQ((fieldCount<AdaptiveTruncationConfig>()), 8u);
    EXPECT_EQ((fieldCount<SwMemoConfig>()), 5u);
    EXPECT_EQ((fieldCount<AtmConfig>()), 4u);
    EXPECT_EQ((fieldCount<IactConfig>()), 4u);
    EXPECT_EQ((fieldCount<EnergyParams>()), 18u);
    EXPECT_EQ((fieldCount<CpuConfig>()), 7u);
    EXPECT_EQ((fieldCount<ExperimentConfig>()), 13u);
}

// ---------------------------------------------------------------------
// Per-field mutators: drive the sensitivity test (each mutation must
// change the canonical string).

struct Mutator
{
    const char *field;
    std::function<void(ExperimentConfig &, Rng &)> apply;
};

std::vector<Mutator>
mutators()
{
    auto d = [](Rng &rng) { return rng.uniform(0.001, 4096.0); };
    return {
        {"dataset.scale",
         [&](ExperimentConfig &c, Rng &r) {
             c.dataset.scale = r.uniform(0.001, 2.0);
         }},
        {"dataset.seed",
         [](ExperimentConfig &c, Rng &r) {
             c.dataset.seed = static_cast<std::uint32_t>(r.next());
         }},
        {"dataset.sampleSet",
         [](ExperimentConfig &c, Rng &) {
             c.dataset.sampleSet = !c.dataset.sampleSet;
         }},
        {"lut.l1Bytes",
         [](ExperimentConfig &c, Rng &r) {
             c.lut.l1Bytes = 1024 + r.below(1 << 20);
         }},
        {"lut.l2Bytes",
         [](ExperimentConfig &c, Rng &r) {
             c.lut.l2Bytes = r.below(1 << 22);
         }},
        {"crcBits",
         [](ExperimentConfig &c, Rng &r) {
             c.crcBits = 8 + static_cast<unsigned>(r.below(57));
         }},
        {"hierarchy.l1d.name",
         [](ExperimentConfig &c, Rng &) {
             c.hierarchy.l1d.name += "'\"\\x";
         }},
        {"hierarchy.l1d.sizeBytes",
         [](ExperimentConfig &c, Rng &r) {
             c.hierarchy.l1d.sizeBytes = 1024 + r.below(1 << 20);
         }},
        {"hierarchy.l1d.assoc",
         [](ExperimentConfig &c, Rng &r) {
             c.hierarchy.l1d.assoc =
                 1 + static_cast<unsigned>(r.below(16));
         }},
        {"hierarchy.l1d.lineSize",
         [](ExperimentConfig &c, Rng &) {
             c.hierarchy.l1d.lineSize = 128;
         }},
        {"hierarchy.l1d.hitLatency",
         [](ExperimentConfig &c, Rng &r) {
             c.hierarchy.l1d.hitLatency = 1 + r.below(9);
         }},
        {"hierarchy.l2.sizeBytes",
         [](ExperimentConfig &c, Rng &r) {
             c.hierarchy.l2.sizeBytes = 65536 + r.below(1 << 22);
         }},
        {"hierarchy.dram.channels",
         [](ExperimentConfig &c, Rng &r) {
             c.hierarchy.dram.channels =
                 1 + static_cast<unsigned>(r.below(8));
         }},
        {"hierarchy.dram.banksPerChannel",
         [](ExperimentConfig &c, Rng &r) {
             c.hierarchy.dram.banksPerChannel =
                 1 + static_cast<unsigned>(r.below(16));
         }},
        {"hierarchy.dram.rowBytes",
         [](ExperimentConfig &c, Rng &) {
             c.hierarchy.dram.rowBytes = 16 * 1024;
         }},
        {"hierarchy.dram.rowHitLatency",
         [](ExperimentConfig &c, Rng &r) {
             c.hierarchy.dram.rowHitLatency = 50 + r.below(100);
         }},
        {"hierarchy.dram.rowMissLatency",
         [](ExperimentConfig &c, Rng &r) {
             c.hierarchy.dram.rowMissLatency = 120 + r.below(200);
         }},
        {"qualityMonitor",
         [](ExperimentConfig &c, Rng &) {
             c.qualityMonitor = !c.qualityMonitor;
         }},
        {"truncOverride",
         [](ExperimentConfig &c, Rng &r) {
             c.truncOverride = static_cast<int>(r.below(24));
         }},
        {"adaptive.enabled",
         [](ExperimentConfig &c, Rng &) {
             c.adaptive.enabled = !c.adaptive.enabled;
         }},
        {"adaptive.profilePeriod",
         [](ExperimentConfig &c, Rng &r) {
             c.adaptive.profilePeriod =
                 100 + static_cast<std::uint32_t>(r.below(10000));
         }},
        {"adaptive.profileLength",
         [](ExperimentConfig &c, Rng &r) {
             c.adaptive.profileLength =
                 1 + static_cast<std::uint32_t>(r.below(100));
         }},
        {"adaptive.targetError",
         [d](ExperimentConfig &c, Rng &r) { c.adaptive.targetError = d(r); }},
        {"adaptive.raiseBand",
         [d](ExperimentConfig &c, Rng &r) { c.adaptive.raiseBand = d(r); }},
        {"adaptive.hitTarget",
         [d](ExperimentConfig &c, Rng &r) { c.adaptive.hitTarget = d(r); }},
        {"adaptive.maxExtraBits",
         [](ExperimentConfig &c, Rng &r) {
             c.adaptive.maxExtraBits =
                 1 + static_cast<unsigned>(r.below(24));
         }},
        {"adaptive.absoluteFloor",
         [](ExperimentConfig &c, Rng &r) {
             c.adaptive.absoluteFloor =
                 static_cast<unsigned>(r.below(8)) + 2;
         }},
        {"l2Policy",
         [](ExperimentConfig &c, Rng &) {
             c.l2Policy = c.l2Policy == L2LutPolicy::Inclusive
                              ? L2LutPolicy::Victim
                              : L2LutPolicy::Inclusive;
         }},
        {"software.hash",
         [](ExperimentConfig &c, Rng &) {
             c.software.hash = c.software.hash == SwHashKind::TableCrc
                                   ? SwHashKind::ByteSample
                                   : SwHashKind::TableCrc;
         }},
        {"software.log2Entries",
         [](ExperimentConfig &c, Rng &r) {
             c.software.log2Entries =
                 10 + static_cast<unsigned>(r.below(19));
         }},
        {"software.sampleBytes",
         [](ExperimentConfig &c, Rng &r) {
             c.software.sampleBytes =
                 1 + static_cast<unsigned>(r.below(16));
         }},
        {"software.taskOverheadInsts",
         [](ExperimentConfig &c, Rng &r) {
             c.software.taskOverheadInsts =
                 static_cast<unsigned>(r.below(200)) + 1;
         }},
        {"software.seed",
         [](ExperimentConfig &c, Rng &r) {
             c.software.seed = static_cast<std::uint32_t>(r.next());
         }},
        {"atm.sampleBytes",
         [](ExperimentConfig &c, Rng &r) {
             c.atm.sampleBytes = 1 + static_cast<unsigned>(r.below(16));
         }},
        {"atm.taskOverheadInsts",
         [](ExperimentConfig &c, Rng &r) {
             c.atm.taskOverheadInsts =
                 static_cast<unsigned>(r.below(400)) + 1;
         }},
        {"atm.log2Entries",
         [](ExperimentConfig &c, Rng &r) {
             c.atm.log2Entries =
                 10 + static_cast<unsigned>(r.below(19));
         }},
        {"atm.seed",
         [](ExperimentConfig &c, Rng &r) {
             c.atm.seed = static_cast<std::uint32_t>(r.next());
         }},
        {"iact.threshold",
         [](ExperimentConfig &c, Rng &r) {
             c.iact.threshold = r.uniform(0.0001, 0.5);
         }},
        {"iact.log2Entries",
         [](ExperimentConfig &c, Rng &r) {
             c.iact.log2Entries = 1 + static_cast<unsigned>(r.below(8));
         }},
        {"iact.pools",
         [](ExperimentConfig &c, Rng &r) {
             c.iact.pools = 1u << static_cast<unsigned>(r.below(6));
         }},
        {"iact.taskOverheadInsts",
         [](ExperimentConfig &c, Rng &r) {
             c.iact.taskOverheadInsts =
                 static_cast<unsigned>(r.below(200)) + 1;
         }},
        {"energy.frontendPerUop",
         [d](ExperimentConfig &c, Rng &r) {
             c.energy.frontendPerUop = d(r);
         }},
        {"energy.intAlu",
         [d](ExperimentConfig &c, Rng &r) { c.energy.intAlu = d(r); }},
        {"energy.intMul",
         [d](ExperimentConfig &c, Rng &r) { c.energy.intMul = d(r); }},
        {"energy.intDiv",
         [d](ExperimentConfig &c, Rng &r) { c.energy.intDiv = d(r); }},
        {"energy.fpSimple",
         [d](ExperimentConfig &c, Rng &r) { c.energy.fpSimple = d(r); }},
        {"energy.fpMul",
         [d](ExperimentConfig &c, Rng &r) { c.energy.fpMul = d(r); }},
        {"energy.fpDiv",
         [d](ExperimentConfig &c, Rng &r) { c.energy.fpDiv = d(r); }},
        {"energy.fpLongPerUop",
         [d](ExperimentConfig &c, Rng &r) {
             c.energy.fpLongPerUop = d(r);
         }},
        {"energy.memAgen",
         [d](ExperimentConfig &c, Rng &r) { c.energy.memAgen = d(r); }},
        {"energy.branch",
         [d](ExperimentConfig &c, Rng &r) { c.energy.branch = d(r); }},
        {"energy.memoIssue",
         [d](ExperimentConfig &c, Rng &r) { c.energy.memoIssue = d(r); }},
        {"energy.l1dAccess",
         [d](ExperimentConfig &c, Rng &r) { c.energy.l1dAccess = d(r); }},
        {"energy.l2Access",
         [d](ExperimentConfig &c, Rng &r) { c.energy.l2Access = d(r); }},
        {"energy.dramAccess",
         [d](ExperimentConfig &c, Rng &r) { c.energy.dramAccess = d(r); }},
        {"energy.crcPer4Bytes",
         [d](ExperimentConfig &c, Rng &r) {
             c.energy.crcPer4Bytes = d(r);
         }},
        {"energy.hvrAccess",
         [d](ExperimentConfig &c, Rng &r) { c.energy.hvrAccess = d(r); }},
        {"energy.leakagePerCycle",
         [d](ExperimentConfig &c, Rng &r) {
             c.energy.leakagePerCycle = d(r);
         }},
        {"energy.memoLeakagePerCycle",
         [d](ExperimentConfig &c, Rng &r) {
             c.energy.memoLeakagePerCycle = d(r);
         }},
        {"cpu.issueWidth",
         [](ExperimentConfig &c, Rng &r) {
             c.cpu.issueWidth = 1 + static_cast<unsigned>(r.below(8));
         }},
        {"cpu.mispredictPenalty",
         [](ExperimentConfig &c, Rng &r) {
             c.cpu.mispredictPenalty = 1 + r.below(30);
         }},
        {"cpu.freqGhz",
         [](ExperimentConfig &c, Rng &r) {
             c.cpu.freqGhz = r.uniform(0.5, 5.0);
         }},
        {"cpu.numIntAlus",
         [](ExperimentConfig &c, Rng &r) {
             c.cpu.numIntAlus = 1 + static_cast<unsigned>(r.below(8));
         }},
        {"cpu.predictorEntries",
         [](ExperimentConfig &c, Rng &r) {
             c.cpu.predictorEntries =
                 64u << static_cast<unsigned>(r.below(10));
         }},
        {"cpu.outOfOrder",
         [](ExperimentConfig &c, Rng &) {
             c.cpu.outOfOrder = !c.cpu.outOfOrder;
         }},
        {"cpu.robSize",
         [](ExperimentConfig &c, Rng &r) {
             c.cpu.robSize = 16 + static_cast<unsigned>(r.below(240));
         }},
    };
}

/** The token the serializer wrote right after @p prefix in @p json
 * (up to the next ',' or '}'). */
std::string
tokenAfter(const std::string &json, const std::string &prefix)
{
    const std::size_t at = json.find(prefix);
    if (at == std::string::npos) {
        ADD_FAILURE() << "no '" << prefix << "' in " << json;
        return {};
    }
    const std::size_t begin = at + prefix.size();
    return json.substr(begin, json.find_first_of(",}", begin) - begin);
}

TEST(ConfigIo, EveryFieldParticipatesInSerialization)
{
    const std::string base = toJson(ExperimentConfig{});
    Rng rng(2024);
    for (const Mutator &m : mutators()) {
        // A random draw may legitimately land on the default value;
        // only repeated identity means the field is not serialized.
        bool changed = false;
        for (int attempt = 0; attempt < 8 && !changed; ++attempt) {
            ExperimentConfig config;
            m.apply(config, rng);
            changed = toJson(config) != base;
        }
        EXPECT_TRUE(changed)
            << "mutating " << m.field
            << " did not change the canonical serialization";
    }
}

TEST(ConfigIo, AdversarialDoublesRoundTrip)
{
    // Every %.17g token must read back to the identical bit pattern:
    // that is what makes string equality of serializations
    // configuration equality (and keeps -0.0 apart from 0.0).
    const double values[] = {0.0, -0.0, 1e-308, 1.7976931348623157e308,
                             0.1, 1.0 / 3.0, 6.02214076e23,
                             -123.456789012345678};
    for (double v : values) {
        ExperimentConfig config;
        config.dataset.scale = v;
        const std::string token =
            tokenAfter(toJson(config), "{\"dataset\":{\"scale\":");
        char *end = nullptr;
        const double back = std::strtod(token.c_str(), &end);
        EXPECT_EQ(*end, '\0') << "token " << token;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
                  std::bit_cast<std::uint64_t>(v))
            << "value " << v << " token " << token;
    }
}

TEST(ConfigIo, LargeU64RoundTripsLosslessly)
{
    // Values above 2^53 are not representable as doubles; the writer
    // must print the integer itself, digit for digit.
    ExperimentConfig config;
    config.lut.l1Bytes = (1ull << 53) + 1;
    config.lut.l2Bytes = 0xffffffffffffffffull;
    const std::string json = toJson(config);
    EXPECT_EQ(tokenAfter(json, "\"l1_bytes\":"), "9007199254740993");
    EXPECT_EQ(tokenAfter(json, "\"l2_bytes\":"), "18446744073709551615");
}

TEST(ParseBackend, ResolvesEveryRegisteredName)
{
    for (const MemoBackend *backend : memoBackends().list()) {
        const Expected<const MemoBackend *> got =
            memoBackends().resolve(backend->name());
        ASSERT_TRUE(got.ok()) << backend->name();
        EXPECT_EQ(got.value(), backend);
    }
}

TEST(ParseBackend, UnknownNameIsStructuredErrorWithSuggestion)
{
    const Expected<const MemoBackend *> bad =
        memoBackends().resolve("axmeno");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ErrorCode::Config);
    EXPECT_EQ(bad.error().component, "backend");
    EXPECT_NE(bad.error().message.find("axmeno"), std::string::npos);
    EXPECT_NE(bad.error().message.find("did you mean 'axmemo'"),
              std::string::npos)
        << bad.error().describe();
    // Every registered backend is listed so the user can pick one.
    for (const MemoBackend *backend : memoBackends().list())
        EXPECT_NE(bad.error().message.find(backend->name()),
                  std::string::npos);
}

TEST(ParseBackend, FarOffNameListsBackendsWithoutSuggestion)
{
    const Expected<const MemoBackend *> bad =
        memoBackends().resolve("zzzzzzzzzzzz");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().message.find("did you mean"),
              std::string::npos)
        << bad.error().describe();
    EXPECT_NE(bad.error().message.find("registered backends"),
              std::string::npos);
}

TEST(ConfigIo, EnumsSerializeSymbolically)
{
    ExperimentConfig config;
    config.l2Policy = L2LutPolicy::Victim;
    config.software.hash = SwHashKind::ByteSample;
    const std::string json = toJson(config);
    EXPECT_NE(json.find("\"l2_policy\":\"victim\""), std::string::npos);
    EXPECT_NE(json.find("\"hash\":\"byte_sample\""), std::string::npos);
}

} // namespace
} // namespace axmemo
