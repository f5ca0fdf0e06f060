/**
 * @file
 * The artifact registry (core/artifact.hh): registration inventory,
 * listing order, and the refactor's core promise — an artifact's
 * report text is byte-identical whether its sweep runs serially or in
 * parallel, and across repeated runs. Full stdout byte-identity of
 * `axmemo run fig9` and `atm_comparison` against checked-in goldens is
 * covered by the artifact_driver_identity ctest in
 * tests/CMakeLists.txt.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <set>
#include <string>

#include "core/artifact.hh"

namespace axmemo {
namespace {

class ArtifactsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Small datasets: these tests exercise plumbing, not physics.
        setenv("AXMEMO_SCALE", "0.02", 1);
    }
    void TearDown() override { unsetenv("AXMEMO_SCALE"); }
};

std::string
reduceWithWorkers(const std::string &name, unsigned workers)
{
    const std::unique_ptr<Artifact> artifact =
        ArtifactRegistry::instance().make(name);
    EXPECT_NE(artifact, nullptr);
    SweepEngine engine(workers);
    artifact->enqueue(engine);
    return artifact->reduce(engine.execute()).text;
}

TEST(ArtifactRegistry, CatalogIsComplete)
{
    const auto infos = ArtifactRegistry::instance().list();
    std::set<std::string> names;
    for (const ArtifactInfo &info : infos) {
        EXPECT_FALSE(info.description.empty()) << info.name;
        names.insert(info.name);
    }
    EXPECT_EQ(names.size(), infos.size()) << "duplicate names";
    for (const char *expected :
         {"table1", "table2", "table3", "table4", "table5", "fig7",
          "fig8", "fig9", "fig10", "fig11", "atm_comparison",
          "memo_backends", "dse", "l2_sensitivity",
          "estimator_validation", "ablate_crc_width",
          "ablate_lut_geometry", "ablate_quality_monitor",
          "ablate_ooo_core", "ablate_adaptive_truncation",
          "ablate_l2_policy", "micro", "serve_traffic"})
        EXPECT_TRUE(names.count(expected)) << expected;
    EXPECT_EQ(infos.size(), 23u);
}

TEST(ArtifactRegistry, ListingIsOrderedTablesFirst)
{
    const auto infos = ArtifactRegistry::instance().list();
    ASSERT_GE(infos.size(), 3u);
    EXPECT_EQ(infos.front().name, "table1");
    EXPECT_EQ(infos.back().name, "serve_traffic");
    for (std::size_t i = 1; i < infos.size(); ++i)
        EXPECT_LE(infos[i - 1].order, infos[i].order);
}

TEST(ArtifactRegistry, UnknownNameReturnsNull)
{
    EXPECT_EQ(ArtifactRegistry::instance().make("fig99"), nullptr);
    EXPECT_EQ(ArtifactRegistry::instance().make(""), nullptr);
}

TEST(ArtifactRegistry, MakeReturnsFreshInstances)
{
    const auto a = ArtifactRegistry::instance().make("fig9");
    const auto b = ArtifactRegistry::instance().make("fig9");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(a->name(), "fig9");
    EXPECT_EQ(b->title(), a->title());
}

TEST_F(ArtifactsTest, Fig9SerialAndParallelReportsAreIdentical)
{
    const std::string serial = reduceWithWorkers("fig9", 1);
    const std::string parallel = reduceWithWorkers("fig9", 4);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

TEST_F(ArtifactsTest, Fig9ReportsAreStableAcrossRuns)
{
    EXPECT_EQ(reduceWithWorkers("fig9", 2), reduceWithWorkers("fig9", 3));
}

TEST_F(ArtifactsTest, Fig11SerialAndParallelReportsAreIdentical)
{
    EXPECT_EQ(reduceWithWorkers("fig11", 1),
              reduceWithWorkers("fig11", 4));
}

TEST(ArtifactHelpers, AppendfFormatsAndAppends)
{
    std::string out = "head:";
    appendf(out, " %d %.2f %s", 7, 1.5, "tail");
    EXPECT_EQ(out, "head: 7 1.50 tail");
    appendf(out, "%s", "");
    EXPECT_EQ(out, "head: 7 1.50 tail");
}

} // namespace
} // namespace axmemo
