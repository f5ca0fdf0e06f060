/**
 * @file
 * Unit tests for the common substrate: bit utilities, RNG determinism,
 * statistics containers, and the paper's quality metrics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <cstdlib>

#include "common/bits.hh"
#include "common/error_metrics.hh"
#include "common/events.hh"
#include "common/expected.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/runtime_options.hh"
#include "common/stats.hh"

namespace axmemo {
namespace {

// ---------------------------------------------------------------- bits

TEST(Bits, MaskLow)
{
    EXPECT_EQ(maskLow(0), 0u);
    EXPECT_EQ(maskLow(1), 1u);
    EXPECT_EQ(maskLow(8), 0xffu);
    EXPECT_EQ(maskLow(32), 0xffffffffull);
    EXPECT_EQ(maskLow(64), ~0ull);
}

TEST(Bits, ExtractAndInsert)
{
    EXPECT_EQ(bits(0xdeadbeef, 15, 8), 0xbeu);
    EXPECT_EQ(bits(0xdeadbeef, 31, 0), 0xdeadbeefu);
    EXPECT_EQ(insertBits(0, 15, 8, 0xab), 0xab00u);
    EXPECT_EQ(insertBits(0xffff, 7, 0, 0), 0xff00u);
}

TEST(Bits, PowerOfTwoAndLogs)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(48));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
    EXPECT_EQ(ceilLog2(64), 6u);
    EXPECT_EQ(ceilLog2(65), 7u);
}

TEST(Bits, TruncateLsbs)
{
    EXPECT_EQ(truncateLsbs(0xff, 4), 0xf0u);
    EXPECT_EQ(truncateLsbs(0xff, 0), 0xffu);
    EXPECT_EQ(truncateLsbs(0x12345678, 16), 0x12340000u);
    EXPECT_EQ(truncateLsbs(~0ull, 64), 0u);
}

TEST(Bits, FloatRoundTrip)
{
    const float values[] = {0.0f, 1.0f, -2.5f, 3.14159f, 1e-20f, 1e20f};
    for (float v : values)
        EXPECT_EQ(bitsToFloat(floatBits(v)), v);
    EXPECT_EQ(floatBits(1.0f), 0x3f800000u);
}

TEST(Bits, TruncateFloatRoundsTowardZeroMagnitude)
{
    // Clearing mantissa LSBs never increases the magnitude.
    const float v = 123.456f;
    for (unsigned n : {0u, 4u, 8u, 16u}) {
        const float t = truncateFloat(v, n);
        EXPECT_LE(t, v);
        EXPECT_GE(t, 0.0f);
    }
    // Truncating 16 of 23 mantissa bits keeps ~0.8% relative precision.
    EXPECT_NEAR(truncateFloat(123.456f, 16), 123.456f, 1.0f);
}

// ----------------------------------------------------------------- rng

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += (a.next() == b.next());
    EXPECT_LT(equal, 2);
}

TEST(Rng, BelowIsInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, UniformIsInRange)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(2.0, 3.0);
        EXPECT_GE(u, 2.0);
        EXPECT_LT(u, 3.0);
    }
}

TEST(Rng, UniformMeanRoughlyCentered)
{
    Rng rng(11);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    RunningStat stat;
    for (int i = 0; i < 20000; ++i)
        stat.add(rng.gaussian());
    EXPECT_NEAR(stat.mean(), 0.0, 0.05);
    EXPECT_NEAR(stat.stddev(), 1.0, 0.05);
}

// --------------------------------------------------------------- stats

TEST(RunningStat, BasicMoments)
{
    RunningStat s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(RunningStat, EmptyIsZero)
{
    const RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MergeMatchesCombined)
{
    RunningStat a, b, all;
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        const double v = rng.uniform(-3, 7);
        (i % 2 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(GeometricMean, KnownValues)
{
    EXPECT_DOUBLE_EQ(geometricMean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_EQ(geometricMean({}), 0.0);
}

TEST(GeometricMean, RejectsNonPositive)
{
    EXPECT_THROW(geometricMean({1.0, 0.0}), std::logic_error);
}

TEST(EmpiricalCdf, FractionsAndQuantiles)
{
    const EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0, 5.0});
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(0.5), 0.0);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(3.0), 0.6);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(10.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 5.0);
}

TEST(EmpiricalCdf, EvaluateMatchesPointQueries)
{
    Rng rng(3);
    std::vector<double> samples;
    for (int i = 0; i < 100; ++i)
        samples.push_back(rng.uniform());
    const EmpiricalCdf cdf(samples);
    const std::vector<double> pts = {0.1, 0.5, 0.9};
    const auto fractions = cdf.evaluate(pts);
    for (std::size_t i = 0; i < pts.size(); ++i)
        EXPECT_DOUBLE_EQ(fractions[i], cdf.fractionAtOrBelow(pts[i]));
}

/**
 * The raw-sample CDF that value/count runs replace: the samples sorted,
 * quantile q read at index q*(n-1)+0.5 truncated, and the fraction at x
 * counted with upper_bound.
 */
class RawSampleCdf
{
  public:
    explicit RawSampleCdf(std::vector<double> samples)
        : sorted_(std::move(samples))
    {
        std::sort(sorted_.begin(), sorted_.end());
    }

    double
    quantile(double q) const
    {
        if (sorted_.empty())
            return 0.0;
        q = std::clamp(q, 0.0, 1.0);
        const auto idx = static_cast<std::size_t>(
            q * static_cast<double>(sorted_.size() - 1) + 0.5);
        return sorted_[idx];
    }

    double
    fractionAtOrBelow(double x) const
    {
        if (sorted_.empty())
            return 0.0;
        const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
        return static_cast<double>(it - sorted_.begin()) /
               static_cast<double>(sorted_.size());
    }

    const std::vector<double> &sorted() const { return sorted_; }

  private:
    std::vector<double> sorted_;
};

/** Bit-exact double equality (EXPECT_DOUBLE_EQ allows 4 ulps). */
::testing::AssertionResult
sameBits(double a, double b)
{
    if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << std::hexfloat << a << " != " << b;
}

/** Every query of @p cdf against @p ref: quantiles at 0, 1 and 101
 * evenly spaced q; fractions and evaluate() at each distinct value,
 * between neighbours and outside the range. */
void
expectMatchesReference(const EmpiricalCdf &cdf, const RawSampleCdf &ref,
                       const std::string &what)
{
    ASSERT_EQ(cdf.size(), ref.sorted().size()) << what;
    std::vector<double> qs = {0.0, 1.0};
    for (int i = 0; i <= 100; ++i)
        qs.push_back(i / 100.0);
    for (double q : qs)
        EXPECT_TRUE(sameBits(cdf.quantile(q), ref.quantile(q)))
            << what << " q=" << q;

    std::vector<double> points = {
        -std::numeric_limits<double>::infinity(), -1.0,
        std::numeric_limits<double>::infinity()};
    const std::vector<double> &sorted = ref.sorted();
    if (!sorted.empty()) {
        points.push_back(sorted.front() - 1.0);
        points.push_back(sorted.back() + 1.0);
    }
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        if (i && sorted[i] == sorted[i - 1])
            continue;
        points.push_back(sorted[i]);
        if (i + 1 < sorted.size() && sorted[i + 1] != sorted[i])
            points.push_back(sorted[i] + (sorted[i + 1] - sorted[i]) / 2);
    }
    const std::vector<double> evaluated = cdf.evaluate(points);
    ASSERT_EQ(evaluated.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const double expected = ref.fractionAtOrBelow(points[i]);
        EXPECT_TRUE(sameBits(cdf.fractionAtOrBelow(points[i]), expected))
            << what << " x=" << points[i];
        EXPECT_TRUE(sameBits(evaluated[i], expected))
            << what << " evaluate x=" << points[i];
    }
}

TEST(EmpiricalCdf, RunsMatchRawSampleReference)
{
    std::vector<std::pair<std::string, std::vector<double>>> sets;
    sets.push_back({"empty", {}});
    sets.push_back({"one value", {0.25}});
    sets.push_back({"all equal", std::vector<double>(1000, 3.5)});
    Rng rng(11);
    std::vector<double> distinct;
    for (int i = 0; i < 5000; ++i)
        distinct.push_back(rng.uniform(0.0, 2.0));
    sets.push_back({"distinct", distinct});
    // Shaped like fig7's error CDFs: ~700k samples over ~29k values,
    // half of them exact (0), the rest Zipf-like over the others.
    std::vector<double> ties;
    for (int i = 0; i < 700000; ++i) {
        const double u = rng.uniform();
        ties.push_back(u < 0.5 ? 0.0
                               : static_cast<double>(rng.below(29000) *
                                                     rng.below(29000) /
                                                     29000 + 1) /
                                     7919.0);
    }
    sets.push_back({"fig7-shaped ties", ties});

    for (const auto &[what, samples] : sets) {
        const EmpiricalCdf cdf(samples);
        expectMatchesReference(cdf, RawSampleCdf(samples), what);
    }
    EXPECT_GT(EmpiricalCdf(ties).runs().size(), 20000u);
}

TEST(EmpiricalCdf, RunsRoundTripThroughFromRuns)
{
    Rng rng(5);
    std::vector<double> samples;
    for (int i = 0; i < 20000; ++i)
        samples.push_back(static_cast<double>(rng.below(500)) / 64.0);
    const EmpiricalCdf cdf(samples);
    const std::vector<EmpiricalCdf::Run> runs = cdf.runs();
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        EXPECT_GT(runs[i].count, 0u);
        if (i) {
            EXPECT_LT(runs[i - 1].value, runs[i].value);
        }
        total += runs[i].count;
    }
    EXPECT_EQ(total, samples.size());

    const Expected<EmpiricalCdf> back = EmpiricalCdf::fromRuns(runs);
    ASSERT_TRUE(back.ok()) << back.error().describe();
    const std::vector<EmpiricalCdf::Run> again = back.value().runs();
    ASSERT_EQ(again.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        EXPECT_TRUE(sameBits(again[i].value, runs[i].value));
        EXPECT_EQ(again[i].count, runs[i].count);
    }
    expectMatchesReference(back.value(), RawSampleCdf(samples),
                           "round trip");
}

TEST(EmpiricalCdf, FromRunsRejectsImpossibleRuns)
{
    using Run = EmpiricalCdf::Run;
    const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    const std::vector<std::vector<Run>> bad = {
        {{0.2, 1}, {0.1, 1}},       // descending
        {{0.1, 1}, {0.1, 1}},       // repeated value
        {{0.1, 0}},                 // zero count
        {{0.1, 5}, {0.2, max}},     // total wraps past 2^64
        {{std::nan(""), 1}},        // NaN value
        {{0.1, 1}, {std::nan(""), 1}},
    };
    for (std::size_t i = 0; i < bad.size(); ++i) {
        const Expected<EmpiricalCdf> cdf = EmpiricalCdf::fromRuns(bad[i]);
        ASSERT_FALSE(cdf.ok()) << i;
        EXPECT_EQ(cdf.error().code, ErrorCode::Parse) << i;
    }

    // The largest representable total is fine and stays in [0, 1].
    const Expected<EmpiricalCdf> huge =
        EmpiricalCdf::fromRuns({{0.1, 5}, {0.2, max - 5}});
    ASSERT_TRUE(huge.ok());
    EXPECT_EQ(huge.value().size(), max);
    EXPECT_LE(huge.value().fractionAtOrBelow(0.15), 1.0);
    EXPECT_EQ(huge.value().fractionAtOrBelow(0.2), 1.0);
    EXPECT_EQ(huge.value().quantile(1.0), 0.2);
    EXPECT_EQ(huge.value().quantile(0.0), 0.1);
    EXPECT_TRUE(EmpiricalCdf::fromRuns({}).ok());
}

TEST(CounterSet, AddGetMerge)
{
    CounterSet a;
    a.add("x");
    a.add("x", 4);
    EXPECT_EQ(a.get("x"), 5u);
    EXPECT_EQ(a.get("missing"), 0u);
    CounterSet b;
    b.add("x", 10);
    b.add("y", 1);
    a.merge(b);
    EXPECT_EQ(a.get("x"), 15u);
    EXPECT_EQ(a.get("y"), 1u);
}

// ------------------------------------------------------ error metrics

TEST(ErrorMetrics, NormalizedSquaredErrorEquation2)
{
    // E_r = sum((xhat-x)^2) / sum(x^2)
    const std::vector<double> exact = {1.0, 2.0, 2.0};
    const std::vector<double> approx = {1.0, 2.0, 5.0};
    EXPECT_DOUBLE_EQ(normalizedSquaredError(exact, approx), 1.0);
    EXPECT_DOUBLE_EQ(normalizedSquaredError(exact, exact), 0.0);
}

TEST(ErrorMetrics, NseZeroReference)
{
    EXPECT_DOUBLE_EQ(normalizedSquaredError({0.0}, {0.0}), 0.0);
    EXPECT_DOUBLE_EQ(normalizedSquaredError({0.0}, {1.0}), 1.0);
}

TEST(ErrorMetrics, NseSizeMismatchPanics)
{
    EXPECT_THROW(normalizedSquaredError({1.0}, {1.0, 2.0}),
                 std::logic_error);
}

TEST(ErrorMetrics, Misclassification)
{
    const std::vector<double> exact = {0, 1, 1, 0};
    const std::vector<double> approx = {0, 1, 0, 1};
    EXPECT_DOUBLE_EQ(misclassificationRate(exact, approx), 0.5);
    EXPECT_DOUBLE_EQ(misclassificationRate(exact, exact), 0.0);
}

TEST(ErrorMetrics, RelativeErrorFloor)
{
    EXPECT_DOUBLE_EQ(relativeError(10.0, 11.0), 0.1);
    // Near-zero exact values are judged against the floor.
    EXPECT_DOUBLE_EQ(relativeError(0.0, 0.5, 1.0), 0.5);
}

TEST(ErrorMetrics, ElementwiseCdf)
{
    const std::vector<double> exact = {1.0, 1.0, 1.0, 1.0};
    const std::vector<double> approx = {1.0, 1.1, 1.2, 2.0};
    const EmpiricalCdf cdf =
        elementwiseRelativeErrorCdf(exact, approx);
    EXPECT_EQ(cdf.size(), 4u);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(0.0), 0.25);
    EXPECT_NEAR(cdf.fractionAtOrBelow(0.25), 0.75, 1e-12);
}

// -------------------------------------------------------------- events

TEST(Events, EveryEventHasUniqueNonNullName)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < numEvents; ++i) {
        const char *name = eventName(static_cast<Ev>(i));
        ASSERT_NE(name, nullptr) << "event " << i;
        EXPECT_GT(std::strlen(name), 0u) << "event " << i;
        EXPECT_TRUE(names.insert(name).second)
            << "duplicate event name '" << name << "'";
    }
}

TEST(Events, NameLookupRoundTripsThroughMerge)
{
    EventCounters counters;
    for (std::size_t i = 0; i < numEvents; ++i)
        counters.add(static_cast<Ev>(i), i + 1);

    CounterSet merged;
    counters.mergeInto(merged);
    for (std::size_t i = 0; i < numEvents; ++i) {
        const char *name = eventName(static_cast<Ev>(i));
        EXPECT_EQ(counters.get(name), i + 1) << name;
        EXPECT_EQ(merged.get(name), i + 1) << name;
    }
    EXPECT_EQ(counters.get("no_such_event"), 0u);
}

// ----------------------------------------------------------------- log

TEST(Log, PanicThrowsLogicError)
{
    EXPECT_THROW(axm_panic("boom ", 42), std::logic_error);
}

TEST(Log, FatalThrowsRuntimeError)
{
    EXPECT_THROW(axm_fatal("bad config"), std::runtime_error);
}

TEST(LogDeathTest, FatalExitsTheProcess)
{
    // The standard harness exit path: fatal() emits its stderr line
    // through the obs sink before throwing, and main() turns the
    // exception into a non-zero exit.
    EXPECT_DEATH(
        {
            setQuiet(false);
            try {
                axm_fatal("unrecoverable ", 42);
            } catch (const std::runtime_error &) {
                std::exit(1);
            }
        },
        "fatal: unrecoverable 42");
}

TEST(Log, SetQuietSuppressesWarnAndInform)
{
    const bool wasQuiet = quiet();
    testing::internal::CaptureStderr();
    setQuiet(true);
    axm_warn("suppressed warn");
    axm_inform("suppressed info");
    setQuiet(false);
    axm_warn("visible warn");
    axm_inform("visible info");
    setQuiet(wasQuiet);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.find("suppressed"), std::string::npos) << err;
    EXPECT_NE(err.find("warn: visible warn\n"), std::string::npos) << err;
    EXPECT_NE(err.find("info: visible info\n"), std::string::npos) << err;
}

TEST(Log, ConcurrentWarnStormHasNoTornLines)
{
    constexpr int threadCount = 8;
    constexpr int perThread = 200;
    const std::string filler(40, '-');

    const bool wasQuiet = quiet();
    setQuiet(false);
    testing::internal::CaptureStderr();
    std::vector<std::thread> pool;
    for (int t = 0; t < threadCount; ++t)
        pool.emplace_back([t, &filler] {
            for (int i = 0; i < perThread; ++i)
                axm_warn("storm thread ", t, " line ", i, " ", filler);
        });
    for (std::thread &th : pool)
        th.join();
    const std::string err = testing::internal::GetCapturedStderr();
    setQuiet(wasQuiet);

    // Every captured line must be one complete warn line: correct
    // prefix, correct tail, nothing interleaved mid-line.
    std::size_t lines = 0;
    std::size_t pos = 0;
    while (pos < err.size()) {
        const std::size_t nl = err.find('\n', pos);
        ASSERT_NE(nl, std::string::npos) << "unterminated line";
        const std::string line = err.substr(pos, nl - pos);
        EXPECT_EQ(line.rfind("warn: storm thread ", 0), 0u) << line;
        ASSERT_GE(line.size(), filler.size()) << line;
        EXPECT_EQ(line.compare(line.size() - filler.size(),
                               filler.size(), filler),
                  0)
            << line;
        ++lines;
        pos = nl + 1;
    }
    EXPECT_EQ(lines, static_cast<std::size_t>(threadCount * perThread));
}

// ---------------------------------------------------- structured errors

TEST(Expected, CarriesValueOrError)
{
    const Expected<int> good = 42;
    ASSERT_TRUE(good.ok());
    EXPECT_TRUE(static_cast<bool>(good));
    EXPECT_EQ(good.value(), 42);
    EXPECT_EQ(good.valueOr(7), 42);

    const Expected<int> bad =
        Error{ErrorCode::Config, "test", "knob out of range"};
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.valueOr(7), 7);
    EXPECT_EQ(bad.error().code, ErrorCode::Config);
    EXPECT_EQ(bad.error().component, "test");
    EXPECT_EQ(bad.error().message, "knob out of range");
}

TEST(Expected, VoidSpecialization)
{
    const Expected<void> good;
    EXPECT_TRUE(good.ok());
    const Expected<void> bad =
        Error{ErrorCode::Io, "disk", "write failed"};
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ErrorCode::Io);
}

TEST(Expected, MisuseIsAPanicNotUndefinedBehavior)
{
    const Expected<int> bad = Error{ErrorCode::Internal, "t", "x"};
    EXPECT_THROW(bad.value(), std::logic_error);
    const Expected<int> good = 1;
    EXPECT_THROW(good.error(), std::logic_error);
}

TEST(Error, DescribeIsStableAndNamed)
{
    const Error error{ErrorCode::Timeout, "simulator",
                      "job watchdog deadline expired"};
    EXPECT_EQ(error.describe(),
              "timeout error in simulator: job watchdog deadline "
              "expired");
    EXPECT_FALSE(error.ok());
    EXPECT_TRUE(Error{}.ok());
    EXPECT_STREQ(errorCodeName(ErrorCode::Parse), "parse");
    EXPECT_STREQ(errorCodeName(ErrorCode::Cancelled), "cancelled");
}

TEST(Error, RaiseErrorThrowsAxExceptionConvertibleToRuntimeError)
{
    // AxException derives from std::runtime_error so legacy
    // EXPECT_THROW(..., std::runtime_error) call sites keep working.
    try {
        raiseError(ErrorCode::Workload, "registry",
                   "unknown workload 'nope'");
        FAIL() << "raiseError returned";
    } catch (const std::runtime_error &e) {
        const auto *ax = dynamic_cast<const AxException *>(&e);
        ASSERT_NE(ax, nullptr);
        EXPECT_EQ(ax->error().code, ErrorCode::Workload);
        EXPECT_NE(std::string(e.what()).find("unknown workload"),
                  std::string::npos);
    }
}

TEST(RuntimeOptions, FromEnvParsesEveryKnobDefensively)
{
    // Snapshot and clear the knobs this test touches.
    const char *const knobs[] = {
        "AXMEMO_JOBS",         "AXMEMO_SCALE",         "AXMEMO_FULL",
        "AXMEMO_RETRIES",      "AXMEMO_TIMING",        "AXMEMO_JOB_TIMEOUT",
        "AXMEMO_FAULT_INJECT", "AXMEMO_LEASE",         "AXMEMO_SERVE_TENANTS",
        "AXMEMO_SERVE_QUEUE",  "AXMEMO_SERVE_LUT"};
    std::vector<std::string> saved; // empty == was unset (or empty)
    for (const char *knob : knobs) {
        const char *value = std::getenv(knob);
        saved.push_back(value ? value : "");
        unsetenv(knob);
    }

    const RuntimeOptions defaults = RuntimeOptions::fromEnv();
    EXPECT_EQ(defaults.jobs, 0u);
    EXPECT_FALSE(defaults.scaleSet);
    EXPECT_FALSE(defaults.full);
    EXPECT_EQ(defaults.retries, 1u);
    EXPECT_EQ(defaults.jobTimeoutSeconds, 0.0);
    EXPECT_TRUE(defaults.reportTiming);
    EXPECT_GE(defaults.workerCount(), 1u);
    EXPECT_DOUBLE_EQ(defaults.benchScale(0.125), 0.125);

    setenv("AXMEMO_JOBS", "5", 1);
    setenv("AXMEMO_SCALE", "0.5", 1);
    setenv("AXMEMO_RETRIES", "3", 1);
    setenv("AXMEMO_JOB_TIMEOUT", "2.5", 1);
    setenv("AXMEMO_TIMING", "0", 1);
    setenv("AXMEMO_FAULT_INJECT", "sobel:2", 1);
    const RuntimeOptions parsed = RuntimeOptions::fromEnv();
    EXPECT_EQ(parsed.jobs, 5u);
    EXPECT_EQ(parsed.workerCount(), 5u);
    EXPECT_DOUBLE_EQ(parsed.benchScale(), 0.5);
    EXPECT_EQ(parsed.retries, 3u);
    EXPECT_DOUBLE_EQ(parsed.jobTimeoutSeconds, 2.5);
    EXPECT_FALSE(parsed.reportTiming);
    EXPECT_EQ(parsed.faultWorkload(), "sobel");
    EXPECT_EQ(parsed.faultAttempts(), 2u);

    // AXMEMO_FULL must be exactly "1" and wins over the scale.
    setenv("AXMEMO_FULL", "1", 1);
    EXPECT_DOUBLE_EQ(RuntimeOptions::fromEnv().benchScale(), 1.0);
    setenv("AXMEMO_FULL", "1x", 1);
    EXPECT_FALSE(RuntimeOptions::fromEnv().full);

    // Malformed values warn and keep defaults, never crash.
    setenv("AXMEMO_RETRIES", "lots", 1);
    setenv("AXMEMO_JOB_TIMEOUT", "-4", 1);
    setenv("AXMEMO_JOBS", "99999", 1);
    const RuntimeOptions defensive = RuntimeOptions::fromEnv();
    EXPECT_EQ(defensive.retries, 1u);
    EXPECT_EQ(defensive.jobTimeoutSeconds, 0.0);
    EXPECT_EQ(defensive.jobs, 0u);

    // The values the driver's flags reject with exit 2 warn here too.
    setenv("AXMEMO_RETRIES", "-1", 1);
    setenv("AXMEMO_SCALE", "abc", 1);
    setenv("AXMEMO_LEASE", "0", 1);
    testing::internal::CaptureStderr();
    const RuntimeOptions rejected = RuntimeOptions::fromEnv();
    const std::string warnings = testing::internal::GetCapturedStderr();
    EXPECT_NE(warnings.find("AXMEMO_RETRIES='-1' (want an integer in "
                            "[0, 64])"),
              std::string::npos)
        << warnings;
    EXPECT_NE(warnings.find("AXMEMO_LEASE='0'"), std::string::npos);
    EXPECT_EQ(rejected.retries, 1u);
    EXPECT_FALSE(rejected.scaleSet);
    EXPECT_DOUBLE_EQ(rejected.leaseSeconds, 30.0);

    // A timing switch other than 0/1, and zero serve tenants, queue
    // depth or LUT bytes, warn and keep the default too.
    setenv("AXMEMO_TIMING", "off", 1);
    setenv("AXMEMO_SERVE_TENANTS", "0", 1);
    setenv("AXMEMO_SERVE_QUEUE", "0", 1);
    setenv("AXMEMO_SERVE_LUT", "0", 1);
    testing::internal::CaptureStderr();
    const RuntimeOptions zeroes = RuntimeOptions::fromEnv();
    const std::string zeroWarnings = testing::internal::GetCapturedStderr();
    for (const char *expected :
         {"AXMEMO_TIMING='off' (want 0 or 1)",
          "AXMEMO_SERVE_TENANTS='0' (want at least 1)",
          "AXMEMO_SERVE_QUEUE='0' (want at least 1)",
          "AXMEMO_SERVE_LUT='0' (want at least 1)"})
        EXPECT_NE(zeroWarnings.find(expected), std::string::npos)
            << expected << "\n" << zeroWarnings;
    EXPECT_TRUE(zeroes.reportTiming);
    EXPECT_EQ(zeroes.serveTenants, 2u);
    EXPECT_EQ(zeroes.serveQueue, 1024u);
    EXPECT_EQ(zeroes.serveLutBytes, 64u * 1024);

    for (std::size_t i = 0; i < saved.size(); ++i) {
        if (saved[i].empty())
            unsetenv(knobs[i]);
        else
            setenv(knobs[i], saved[i].c_str(), 1);
    }
}

TEST(RuntimeOptions, DispatchBatchSimdKnobsParse)
{
    const char *const knobs[] = {"AXMEMO_NO_BATCH", "AXMEMO_NO_SIMD"};
    std::vector<std::string> saved; // empty == was unset (or empty)
    for (const char *knob : knobs) {
        const char *value = std::getenv(knob);
        saved.push_back(value ? value : "");
        unsetenv(knob);
    }

    const RuntimeOptions defaults = RuntimeOptions::fromEnv();
    EXPECT_TRUE(defaults.blockBatch);
    EXPECT_TRUE(defaults.simd);

    setenv("AXMEMO_NO_BATCH", "1", 1);
    setenv("AXMEMO_NO_SIMD", "1", 1);
    const RuntimeOptions parsed = RuntimeOptions::fromEnv();
    EXPECT_FALSE(parsed.blockBatch);
    EXPECT_FALSE(parsed.simd);

    // "0" is the explicit default spelling, not malformed.
    setenv("AXMEMO_NO_BATCH", "0", 1);
    setenv("AXMEMO_NO_SIMD", "0", 1);
    EXPECT_TRUE(RuntimeOptions::fromEnv().blockBatch);
    EXPECT_TRUE(RuntimeOptions::fromEnv().simd);

    // Malformed values warn and keep the defaults, never crash.
    setenv("AXMEMO_NO_BATCH", "yes", 1);
    setenv("AXMEMO_NO_SIMD", "2", 1);
    const RuntimeOptions defensive = RuntimeOptions::fromEnv();
    EXPECT_TRUE(defensive.blockBatch);
    EXPECT_TRUE(defensive.simd);

    for (std::size_t i = 0; i < saved.size(); ++i) {
        if (saved[i].empty())
            unsetenv(knobs[i]);
        else
            setenv(knobs[i], saved[i].c_str(), 1);
    }
}

TEST(KnobParsers, PositiveDoubleWantsAFinitePositiveNumber)
{
    EXPECT_DOUBLE_EQ(parsePositiveDouble("0.02").value(), 0.02);
    EXPECT_DOUBLE_EQ(parsePositiveDouble("30").value(), 30.0);
    for (const char *bad : {"", "abc", "0", "-4", "0.5x", "inf", "nan"})
        EXPECT_FALSE(parsePositiveDouble(bad).ok()) << bad;
    EXPECT_EQ(parsePositiveDouble("abc").error().message,
              "a positive number");
}

TEST(KnobParsers, UnsignedWantsDigitsWithinTheBound)
{
    EXPECT_EQ(parseUnsigned("0", 64).value(), 0u);
    EXPECT_EQ(parseUnsigned("64", 64).value(), 64u);
    // "-1" must not wrap to 4294967295, and strtoul's leading blanks
    // and sign are not part of the rule.
    for (const char *bad :
         {"", "-1", "65", "3x", " 3", "+3", "lots", "99999999999999999999"})
        EXPECT_FALSE(parseUnsigned(bad, 64).ok()) << bad;
    EXPECT_EQ(parseUnsigned("-1", 64).error().message,
              "an integer in [0, 64]");
}

TEST(KnobParsers, U64WantsDigitsWithoutOverflow)
{
    EXPECT_EQ(parseU64("0").value(), 0u);
    EXPECT_EQ(parseU64("18446744073709551615").value(),
              ~std::uint64_t{0});
    for (const char *bad :
         {"", "-1", " -1", "+7", "7 ", "0x10", "18446744073709551616"})
        EXPECT_FALSE(parseU64(bad).ok()) << bad;
    EXPECT_EQ(parseU64("-1").error().message, "a non-negative integer");
}

/** Occurrences of @p name in @p text as a whole word: after a blank
 * and before a blank or a line end ("--out" is not in "--trace-out"). */
std::size_t
countWord(const std::string &text, const std::string &name)
{
    std::size_t count = 0;
    for (std::size_t at = text.find(name); at != std::string::npos;
         at = text.find(name, at + 1)) {
        const std::size_t end = at + name.size();
        if (at > 0 && text[at - 1] == ' ' &&
            (end == text.size() || text[end] == ' ' || text[end] == '\n'))
            ++count;
    }
    return count;
}

TEST(RuntimeOptions, KnobTableDeclaresEveryKnobOnce)
{
    // Walk the table against an environment with no knob set.
    std::vector<std::pair<std::string, std::string>> saved;
    for (const Knob &knob : knobTable()) {
        if (const char *value = std::getenv(knob.env))
            saved.emplace_back(knob.env, value);
        unsetenv(knob.env);
    }
    const RuntimeOptions defaults;
    EXPECT_EQ(RuntimeOptions::fromEnv(), defaults);

    std::set<std::string> envs, flags;
    std::string listing;
    for (const Knob &knob : knobTable()) {
        SCOPED_TRACE(knob.env);
        EXPECT_TRUE(envs.insert(knob.env).second) << "duplicate variable";
        EXPECT_TRUE(flags.insert(knob.flag).second) << "duplicate flag";
        listing += optionHelpLine(knob);

        // A sample the rule accepts: "1", or else the documented default
        // (a choice's default is one of its names). Set as the variable,
        // it must give the defaults with the row applied.
        RuntimeOptions applied = defaults;
        const char *sample = "1";
        if (!knob.rule(applied, sample).ok())
            sample = knob.defaultText;
        applied = defaults;
        EXPECT_TRUE(knob.rule(applied, sample).ok()) << sample;
        setenv(knob.env, sample, 1);
        EXPECT_EQ(RuntimeOptions::fromEnv(), applied) << sample;

        // A bad value: every rule but free text rejects it and writes
        // nothing; fromEnv() warns with the same "want" text the rule
        // gives a flag, and keeps the defaults.
        RuntimeOptions bad = defaults;
        const Expected<void> rejected = knob.rule(bad, "bogus");
        setenv(knob.env, "bogus", 1);
        testing::internal::CaptureStderr();
        const RuntimeOptions fromBad = RuntimeOptions::fromEnv();
        const std::string warning = testing::internal::GetCapturedStderr();
        unsetenv(knob.env);
        if (rejected.ok()) {
            EXPECT_NE(bad, defaults) << "free text must be stored";
            EXPECT_EQ(fromBad, bad);
            EXPECT_EQ(warning, "");
            continue;
        }
        EXPECT_EQ(bad, defaults);
        EXPECT_EQ(fromBad, defaults);
        EXPECT_NE(warning.find(std::string(knob.env) + "='bogus' (want " +
                               rejected.error().message + ")"),
                  std::string::npos)
            << warning;

        // A switch's bare flag is its "0" or its "1", whichever is not
        // the default.
        if (!knob.valueName) {
            RuntimeOptions flag = defaults, zero = defaults, one = defaults;
            EXPECT_TRUE(knob.rule(flag, nullptr).ok());
            EXPECT_TRUE(knob.rule(zero, "0").ok());
            EXPECT_TRUE(knob.rule(one, "1").ok());
            EXPECT_NE(flag, defaults);
            EXPECT_TRUE(flag == zero || flag == one);
        }
    }

    for (const std::string &env : envs)
        EXPECT_EQ(countWord(listing, env), 1u) << env << "\n" << listing;
    for (const std::string &flag : flags)
        EXPECT_EQ(countWord(listing, flag), 1u) << flag << "\n" << listing;
    // The dispatch form is a build property, not a knob.
    EXPECT_EQ(listing.find("DISPATCH"), std::string::npos);
    EXPECT_EQ(listing.find("--dispatch"), std::string::npos);

    for (const auto &[name, value] : saved)
        setenv(name.c_str(), value.c_str(), 1);
}

} // namespace
} // namespace axmemo
