/**
 * @file
 * Seeded mutation fuzzer for the checkpoint journal codec (version 4):
 * SweepJournal::decodeLine, load() and probe().
 *
 * There is no fuzzing engine: a fixed-seed loop mutates real encoded
 * records (a scored axmemo job, a scored software-lut job, an unscored
 * baseline job) and the version header, with generic byte mutations
 * (flip, insert, delete, truncation at many offsets, span duplication,
 * splicing two lines) and targeted error-CDF mutations (swapped runs
 * and zero, 2^64-1, negative and fractional counts). Every mutant must
 * either decode or fail with a Parse error: no crash, no hang, no
 * exception past the codec. Every record that does decode must hold a
 * CDF whose fractions are non-decreasing within [0, 1] and whose
 * quantiles are stored values.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/run_journal.hh"
#include "core/sweep.hh"

namespace axmemo {
namespace {

/** The encoded lines of the resume tests' job matrix. */
std::vector<std::string>
seedLines()
{
    RuntimeOptions options;
    options.jobs = 2;
    options.reportTiming = false;
    SweepEngine engine(options);
    ExperimentConfig config;
    config.dataset.scale = 0.01;
    config.lut = {8 * 1024, 512 * 1024};
    engine.enqueueCompare("sobel", "axmemo", config);
    ExperimentConfig small = config;
    small.lut = {4 * 1024, 0};
    engine.enqueueCompare("sobel", "software-lut", small);
    engine.enqueueRun("sobel", "baseline", config);
    const std::vector<SweepJob> jobs = engine.pending();
    const std::vector<SweepOutcome> outcomes = engine.execute();
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        lines.push_back(SweepJournal::encodeLine(
            SweepJournal::jobKey(jobs[i]), outcomes[i]));
    return lines;
}

const std::string kHeader =
    "{\"axmemo_sweep_journal\":" + std::to_string(SweepJournal::version) +
    "}";

/** The fractions and quantiles of @p cdf are those of a distribution. */
void
expectCdfSane(const EmpiricalCdf &cdf, const std::string &what)
{
    const std::vector<EmpiricalCdf::Run> runs = cdf.runs();
    std::vector<double> points = {-std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::infinity()};
    for (std::size_t i = 0; i < runs.size(); ++i) {
        points.push_back(runs[i].value);
        if (i + 1 < runs.size())
            points.push_back(runs[i].value +
                             (runs[i + 1].value - runs[i].value) / 2);
    }
    std::sort(points.begin(), points.end());
    double previous = 0.0;
    for (double fraction : cdf.evaluate(points)) {
        EXPECT_GE(fraction, 0.0) << what;
        EXPECT_LE(fraction, 1.0) << what;
        EXPECT_GE(fraction, previous) << what;
        previous = fraction;
    }
    if (runs.empty())
        return;
    for (int i = 0; i <= 20; ++i) {
        const double q = cdf.quantile(i / 20.0);
        const auto it = std::lower_bound(
            runs.begin(), runs.end(), q,
            [](const EmpiricalCdf::Run &r, double v) { return r.value < v; });
        EXPECT_TRUE(it != runs.end() && it->value == q)
            << what << " quantile " << q << " is not a stored value";
    }
}

/** Counters of one fuzz pass, for the coverage checks. */
struct Tally
{
    std::size_t mutants = 0;
    std::size_t decoded = 0;
    std::size_t rejected = 0;
};

/** Run @p line through decodeLine: a decoded record or a Parse error. */
void
checkDecode(const std::string &line, const std::string &what, Tally &tally)
{
    ++tally.mutants;
    try {
        const Expected<std::pair<std::string, SweepOutcome>> record =
            SweepJournal::decodeLine(line);
        if (!record.ok()) {
            ++tally.rejected;
            EXPECT_EQ(record.error().code, ErrorCode::Parse) << what;
            return;
        }
        ++tally.decoded;
        const SweepOutcome &outcome = record.value().second;
        EXPECT_TRUE(outcome.run.outputs.empty()) << what;
        if (outcome.scored)
            expectCdfSane(outcome.cmp.errorCdf, what);
    } catch (const std::exception &e) {
        ADD_FAILURE() << what << ": decodeLine threw " << e.what();
    }
}

class TempJournal
{
  public:
    TempJournal()
        : path_(std::string(::testing::TempDir()) + "axmemo_fuzz_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                ".ckpt")
    {
    }
    ~TempJournal() { std::remove(path_.c_str()); }

    const std::string &
    write(const std::string &contents)
    {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out << contents;
        return path_;
    }

  private:
    std::string path_;
};

/** Run a journal file holding @p lines through load(). */
void
checkLoad(TempJournal &file, const std::vector<std::string> &lines,
          const std::string &what)
{
    std::string contents;
    for (const std::string &line : lines)
        contents += line + '\n';
    try {
        std::size_t skipped = 0;
        for (const auto &[key, outcome] :
             SweepJournal::load(file.write(contents), &skipped)) {
            if (outcome.scored)
                expectCdfSane(outcome.cmp.errorCdf, what + " (load)");
        }
        EXPECT_LE(skipped, lines.size()) << what;
    } catch (const std::exception &e) {
        ADD_FAILURE() << what << ": load threw " << e.what();
    }
}

/** One generic mutation of @p line (splice partner @p other). */
std::string
mutate(const std::string &line, const std::string &other, Rng &rng,
       std::string &kind)
{
    static const std::string alphabet = "[]{}\",:-.0123456789eE ntf\\";
    std::string m = line;
    const auto at = [&](std::size_t n) {
        return n ? static_cast<std::size_t>(rng.below(n)) : 0;
    };
    switch (rng.below(5)) {
      case 0:
        kind = "flip";
        if (!m.empty())
            m[at(m.size())] ^= static_cast<char>(1u << rng.below(8));
        break;
      case 1:
        kind = "insert";
        m.insert(m.begin() + static_cast<std::ptrdiff_t>(at(m.size() + 1)),
                 rng.below(2) ? alphabet[at(alphabet.size())]
                              : static_cast<char>(rng.below(256)));
        break;
      case 2: {
        kind = "delete";
        const std::size_t pos = at(m.size());
        m.erase(pos, 1 + at(8));
        break;
      }
      case 3: {
        kind = "duplicate";
        const std::size_t pos = at(m.size());
        const std::string span = m.substr(pos, 1 + at(64));
        m.insert(at(m.size() + 1), span);
        break;
      }
      default:
        kind = "splice";
        m = line.substr(0, at(line.size() + 1)) +
            other.substr(at(other.size() + 1));
        break;
    }
    return m;
}

/** The [value,count] runs of a CDF as text. */
using RunsText = std::vector<std::pair<std::string, std::string>>;

/** The text span of @p line's "cdf" array, and its runs. */
struct CdfText
{
    std::size_t begin = 0; ///< index just past "cdf":[
    std::size_t end = 0;   ///< index of the array's closing ]
    RunsText runs;
};

CdfText
findCdf(const std::string &line)
{
    CdfText cdf;
    const std::string tag = "\"cdf\":[";
    const std::size_t at = line.find(tag);
    if (at == std::string::npos)
        return cdf;
    cdf.begin = at + tag.size();
    std::size_t pos = cdf.begin;
    while (line[pos] == '[') {
        const std::size_t comma = line.find(',', pos);
        const std::size_t close = line.find(']', comma);
        cdf.runs.push_back({line.substr(pos + 1, comma - pos - 1),
                            line.substr(comma + 1, close - comma - 1)});
        pos = close + 1;
        if (line[pos] == ',')
            ++pos;
    }
    cdf.end = pos;
    return cdf;
}

/** @p line with its CDF runs replaced by @p runs. */
std::string
withRuns(const std::string &line, const CdfText &cdf, const RunsText &runs)
{
    std::string text;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (i)
            text += ',';
        text += '[' + runs[i].first + ',' + runs[i].second + ']';
    }
    return line.substr(0, cdf.begin) + text + line.substr(cdf.end);
}

TEST(JournalFuzz, SeedsDecode)
{
    for (const std::string &line : seedLines()) {
        const auto record = SweepJournal::decodeLine(line);
        ASSERT_TRUE(record.ok()) << record.error().describe();
        if (record.value().second.scored) {
            const CdfText cdf = findCdf(line);
            EXPECT_EQ(cdf.runs.size(),
                      record.value().second.cmp.errorCdf.runs().size());
        }
    }
}

TEST(JournalFuzz, GenericMutationsDecodeOrFailWithParse)
{
    const std::vector<std::string> seeds = seedLines();
    std::vector<std::string> lines = seeds;
    lines.push_back(kHeader);
    TempJournal file;
    Rng rng(0x5eed);
    Tally tally;

    for (std::size_t s = 0; s < lines.size(); ++s) {
        const std::string &line = lines[s];
        const std::string &other = lines[(s + 1) % lines.size()];
        // Each mutant through decodeLine, and through load() as the
        // last line of a journal whose other record is intact.
        const auto check = [&](const std::string &mutant,
                               const std::string &what) {
            checkDecode(mutant, what, tally);
            checkLoad(file, {kHeader, seeds[2], mutant}, what);
        };
        // Random single mutations, and stacks of a few.
        for (int i = 0; i < 100; ++i) {
            std::string kind;
            std::string mutant = mutate(line, other, rng, kind);
            for (unsigned extra = rng.below(4) == 0 ? 2 : 0; extra; --extra)
                mutant = mutate(mutant, other, rng, kind);
            check(mutant, "seed " + std::to_string(s) + " " + kind + " #" +
                              std::to_string(i));
        }
        // Truncation at evenly spread offsets, every short prefix, and
        // every byte near either end of the CDF array.
        std::vector<std::size_t> cuts;
        for (std::size_t k = 0; k <= 25; ++k)
            cuts.push_back(line.size() * k / 25);
        for (std::size_t k = 0; k < std::min<std::size_t>(line.size(), 16);
             ++k)
            cuts.push_back(k);
        const CdfText cdf = findCdf(line);
        if (cdf.end) {
            for (std::size_t k = cdf.begin - 8; k < cdf.begin + 8; ++k)
                cuts.push_back(k);
            for (std::size_t k = cdf.end - 8; k < cdf.end + 8; ++k)
                cuts.push_back(k);
        }
        for (std::size_t cut : cuts)
            check(line.substr(0, cut), "seed " + std::to_string(s) +
                                           " truncated at " +
                                           std::to_string(cut));
    }
    // The loop must have produced both outcomes in quantity.
    EXPECT_GT(tally.mutants, 500u);
    EXPECT_GT(tally.rejected, tally.mutants / 2);
    EXPECT_GT(tally.decoded, 0u);
}

TEST(JournalFuzz, BrokenCdfRunsAreRejected)
{
    const std::vector<std::string> seeds = seedLines();
    TempJournal file;
    Tally tally;
    const std::string max =
        std::to_string(std::numeric_limits<std::uint64_t>::max());
    std::size_t scored = 0;
    for (std::size_t s = 0; s < seeds.size(); ++s) {
        const CdfText cdf = findCdf(seeds[s]);
        if (!cdf.end)
            continue;
        ++scored;
        ASSERT_GE(cdf.runs.size(), 2u) << "seed " << s;
        std::vector<std::pair<std::string, RunsText>> mutants;
        const std::size_t n = cdf.runs.size();
        for (std::size_t i = 0; i < n; i += std::max<std::size_t>(1, n / 8)) {
            const std::size_t j = (i + 1 + i * 7) % n;
            if (j != i) {
                auto swapped = cdf.runs;
                std::swap(swapped[i], swapped[j]);
                mutants.push_back({"swap", swapped});
            }
            auto zero = cdf.runs;
            zero[i].second = "0";
            mutants.push_back({"zero count", zero});
            auto wrap = cdf.runs;
            wrap[i].second = max;
            mutants.push_back({"2^64-1 count", wrap});
            auto negative = cdf.runs;
            negative[i].second = "-" + negative[i].second;
            mutants.push_back({"negative count", negative});
            auto fractional = cdf.runs;
            fractional[i].second += ".5";
            mutants.push_back({"fractional count", fractional});
        }
        for (const auto &[kind, runs] : mutants) {
            const std::string line = withRuns(seeds[s], cdf, runs);
            const std::string what = "seed " + std::to_string(s) + " " + kind;
            checkDecode(line, what, tally);
            std::size_t skipped = 0;
            EXPECT_TRUE(SweepJournal::load(
                            file.write(kHeader + '\n' + line + '\n'),
                            &skipped)
                            .empty())
                << what;
            EXPECT_EQ(skipped, 1u) << what;
        }
    }
    EXPECT_EQ(scored, 2u);
    EXPECT_EQ(tally.rejected, tally.mutants);
}

TEST(JournalFuzz, HeaderMutantsProbeOrFailWithParse)
{
    const std::vector<std::string> seeds = seedLines();
    TempJournal file;
    Rng rng(0xbeef);
    Tally tally;
    std::size_t accepted = 0;
    for (int i = 0; i < 1500; ++i) {
        std::string kind;
        const std::string mutant = mutate(kHeader, seeds[2], rng, kind);
        const std::string what = kind + " #" + std::to_string(i);
        checkDecode(mutant, what, tally);
        checkLoad(file, {mutant, seeds[2]}, what);
        try {
            const Expected<SweepJournal::HeaderInfo> header =
                SweepJournal::probe(file.write(mutant + '\n' + seeds[2] +
                                               '\n'));
            if (header.ok()) {
                ++accepted;
                EXPECT_EQ(header.value().version, SweepJournal::version)
                    << what;
            } else {
                EXPECT_EQ(header.error().code, ErrorCode::Parse) << what;
            }
        } catch (const std::exception &e) {
            ADD_FAILURE() << what << ": probe threw " << e.what();
        }
    }
    // Truncated headers, including the empty file.
    for (std::size_t cut = 0; cut < kHeader.size(); ++cut) {
        const Expected<SweepJournal::HeaderInfo> header =
            SweepJournal::probe(file.write(kHeader.substr(0, cut)));
        ASSERT_FALSE(header.ok()) << cut;
        EXPECT_EQ(header.error().code, ErrorCode::Parse) << cut;
    }
    EXPECT_LT(accepted, 1500u);
}

} // namespace
} // namespace axmemo
