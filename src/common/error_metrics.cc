#include "common/error_metrics.hh"

#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/log.hh"

namespace axmemo {

double
normalizedSquaredError(const std::vector<double> &exact,
                       const std::vector<double> &approx)
{
    if (exact.size() != approx.size())
        axm_panic("quality metric: size mismatch ", exact.size(), " vs ",
                  approx.size());
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < exact.size(); ++i) {
        const double d = approx[i] - exact[i];
        num += d * d;
        den += exact[i] * exact[i];
    }
    if (den == 0.0)
        return num == 0.0 ? 0.0 : 1.0;
    return num / den;
}

double
misclassificationRate(const std::vector<double> &exact,
                      const std::vector<double> &approx)
{
    if (exact.size() != approx.size())
        axm_panic("quality metric: size mismatch ", exact.size(), " vs ",
                  approx.size());
    if (exact.empty())
        return 0.0;
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < exact.size(); ++i) {
        if ((exact[i] != 0.0) != (approx[i] != 0.0))
            ++wrong;
    }
    return static_cast<double>(wrong) / static_cast<double>(exact.size());
}

double
relativeError(double exact, double approx, double eps)
{
    const double denom = std::max(std::abs(exact), eps);
    return std::abs(approx - exact) / denom;
}

EmpiricalCdf
elementwiseRelativeErrorCdf(const std::vector<double> &exact,
                            const std::vector<double> &approx, double eps)
{
    if (exact.size() != approx.size())
        axm_panic("quality metric: size mismatch ", exact.size(), " vs ",
                  approx.size());
    std::vector<double> errors(exact.size());
    for (std::size_t i = 0; i < exact.size(); ++i)
        errors[i] = relativeError(exact[i], approx[i], eps);
    return EmpiricalCdf(std::move(errors));
}

} // namespace axmemo
