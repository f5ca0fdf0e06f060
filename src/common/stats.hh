/**
 * @file
 * Lightweight statistics containers used by the simulator and benches:
 * running scalar statistics, named counters, and an empirical CDF.
 */

#ifndef AXMEMO_COMMON_STATS_HH
#define AXMEMO_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/expected.hh"

namespace axmemo {

/** Single-pass mean/min/max/variance accumulator (Welford). */
class RunningStat
{
  public:
    /** Fold one sample into the statistic. */
    void add(double x);

    /** Number of samples observed. */
    std::uint64_t count() const { return n_; }
    /** Arithmetic mean (0 when empty). */
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Population variance (0 when fewer than 2 samples). */
    double variance() const;
    /** Standard deviation. */
    double stddev() const;
    /** Smallest sample (0 when empty). */
    double min() const { return n_ ? min_ : 0.0; }
    /** Largest sample (0 when empty). */
    double max() const { return n_ ? max_ : 0.0; }
    /** Sum of samples. */
    double sum() const { return sum_; }

    /** Merge another accumulator into this one. */
    void merge(const RunningStat &other);

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/** Geometric mean over a sequence of strictly positive values. */
double geometricMean(const std::vector<double> &values);

/**
 * Arithmetic mean, summed in element order (0 when empty). The bench
 * artifacts' average rows all share this accumulator so their summary
 * lines stay bit-identical across refactors.
 */
double arithmeticMean(const std::vector<double> &values);

/**
 * Empirical cumulative distribution function, stored exactly as sorted
 * value/count runs.
 *
 * Used for the element-wise relative-error CDFs of Fig. 10b. One run is
 * a distinct sample value and the number of samples that had it, so
 * the CDF costs memory per distinct value, not per sample (fig7's
 * records hold ~29k distinct values among ~700k samples). Every query
 * returns the double a sorted array of the raw samples would give:
 * quantile(q) reads sample index q*(n-1)+0.5 (truncated), and
 * fractionAtOrBelow(x) counts the samples <= x over n.
 */
class EmpiricalCdf
{
  public:
    /** One distinct sample value and how many samples had it. */
    struct Run
    {
        double value = 0.0;
        std::uint64_t count = 0;
    };

    /** The empty distribution. */
    EmpiricalCdf() = default;

    /** The distribution of @p samples (none may be NaN). */
    explicit EmpiricalCdf(std::vector<double> samples);

    /**
     * Adopt stored runs (the journal codec). A Parse error unless the
     * values ascend strictly (no NaN) and every count is positive with
     * a total that fits in 64 bits: runs that break these would report
     * fractions outside [0, 1].
     */
    static Expected<EmpiricalCdf> fromRuns(const std::vector<Run> &runs);

    /** Number of samples. */
    std::uint64_t size() const { return ends_.empty() ? 0 : ends_.back(); }

    /** The runs in ascending value order. */
    std::vector<Run> runs() const;

    /** Fraction of samples <= @p x. */
    double fractionAtOrBelow(double x) const;

    /** @p q-quantile (q in [0,1]); 0 when empty. */
    double quantile(double q) const;

    /**
     * Evaluate the CDF at @p points x-values.
     * @return vector of P(sample <= x) matching @p points.
     */
    std::vector<double> evaluate(const std::vector<double> &points) const;

  private:
    /** Distinct sample values, strictly ascending. */
    std::vector<double> values_;
    /** ends_[i]: number of samples <= values_[i]. */
    std::vector<std::uint64_t> ends_;
};

/** String-keyed event counters, mergeable; backs the energy model. */
class CounterSet
{
  public:
    /** Add @p delta to counter @p name (creating it at zero). */
    void add(const std::string &name, std::uint64_t delta = 1);

    /** @return counter value, 0 if never touched. */
    std::uint64_t get(const std::string &name) const;

    /** Merge all counters of @p other into this set. */
    void merge(const CounterSet &other);

    /** All counters in name order. */
    const std::map<std::string, std::uint64_t> &all() const
    {
        return counters_;
    }

  private:
    std::map<std::string, std::uint64_t> counters_;
};

} // namespace axmemo

#endif // AXMEMO_COMMON_STATS_HH
