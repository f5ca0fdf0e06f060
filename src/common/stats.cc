#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.hh"

namespace axmemo {

void
RunningStat::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
RunningStat::variance() const
{
    return n_ >= 2 ? m2_ / static_cast<double>(n_) : 0.0;
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    n_ += other.n_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
geometricMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            axm_panic("geometricMean requires positive values, got ", v);
        logSum += std::log(v);
    }
    return std::exp(logSum / static_cast<double>(values.size()));
}

double
arithmeticMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        if (values_.empty() || samples[i] != values_.back()) {
            values_.push_back(samples[i]);
            ends_.push_back(i + 1);
        } else {
            ends_.back() = i + 1;
        }
    }
}

Expected<EmpiricalCdf>
EmpiricalCdf::fromRuns(const std::vector<Run> &runs)
{
    EmpiricalCdf cdf;
    cdf.values_.reserve(runs.size());
    cdf.ends_.reserve(runs.size());
    std::uint64_t total = 0;
    for (const Run &run : runs) {
        if (std::isnan(run.value) ||
            (!cdf.values_.empty() && !(cdf.values_.back() < run.value)))
            return Error{ErrorCode::Parse, "cdf",
                         "run values must ascend strictly"};
        if (run.count == 0)
            return Error{ErrorCode::Parse, "cdf", "run with zero count"};
        if (run.count > std::numeric_limits<std::uint64_t>::max() - total)
            return Error{ErrorCode::Parse, "cdf",
                         "sample count overflows 64 bits"};
        total += run.count;
        cdf.values_.push_back(run.value);
        cdf.ends_.push_back(total);
    }
    return cdf;
}

std::vector<EmpiricalCdf::Run>
EmpiricalCdf::runs() const
{
    std::vector<Run> out(values_.size());
    for (std::size_t i = 0; i < values_.size(); ++i)
        out[i] = {values_[i], ends_[i] - (i ? ends_[i - 1] : 0)};
    return out;
}

double
EmpiricalCdf::fractionAtOrBelow(double x) const
{
    if (values_.empty())
        return 0.0;
    const std::size_t runsAtOrBelow =
        std::upper_bound(values_.begin(), values_.end(), x) -
        values_.begin();
    return static_cast<double>(runsAtOrBelow ? ends_[runsAtOrBelow - 1]
                                             : 0) /
           static_cast<double>(size());
}

double
EmpiricalCdf::quantile(double q) const
{
    if (values_.empty())
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // The sample index a sorted array would read, capped at the last
    // one so that a total near 2^64 cannot overflow the conversion.
    const std::uint64_t last = size() - 1;
    const double pos = q * static_cast<double>(last) + 0.5;
    const std::uint64_t index = pos < static_cast<double>(last)
                                    ? static_cast<std::uint64_t>(pos)
                                    : last;
    return values_[std::upper_bound(ends_.begin(), ends_.end(), index) -
                   ends_.begin()];
}

std::vector<double>
EmpiricalCdf::evaluate(const std::vector<double> &points) const
{
    std::vector<double> out;
    out.reserve(points.size());
    for (double p : points)
        out.push_back(fractionAtOrBelow(p));
    return out;
}

void
CounterSet::add(const std::string &name, std::uint64_t delta)
{
    counters_[name] += delta;
}

std::uint64_t
CounterSet::get(const std::string &name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

void
CounterSet::merge(const CounterSet &other)
{
    for (const auto &[name, value] : other.counters_)
        counters_[name] += value;
}

} // namespace axmemo
