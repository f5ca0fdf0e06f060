/**
 * @file
 * Golden-model validation: baseline workload outputs checked against
 * host-side reference computations (closed-form Black-Scholes, direct
 * DFT, host convolution) and domain invariants — guarding against
 * silent kernel-translation bugs that the memoization comparisons
 * (baseline vs memoized) could never see.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "core/experiment.hh"

namespace axmemo {
namespace {

RunResult
runBaseline(const char *name, double scale = 0.01)
{
    auto workload = makeWorkload(name);
    ExperimentConfig config;
    config.dataset.scale = scale;
    return ExperimentRunner(config).run(*workload, "baseline");
}

TEST(Golden, BlackscholesMatchesClosedForm)
{
    // Recompute a few option prices from the stored dataset using the
    // same single-precision Abramowitz-Stegun CNDF the kernel uses.
    auto workload = makeWorkload("blackscholes");
    ExperimentConfig config;
    config.dataset.scale = 0.01;
    SimMemory mem;
    workload->prepare(mem, config.dataset);
    const Program prog = workload->build();
    Simulator sim(prog, mem, {});
    sim.run();
    const std::vector<double> outputs = workload->readOutputs(mem);

    auto cndf = [](float x) {
        const bool negative = x < 0.0f;
        const float ax = std::fabs(x);
        const float k = 1.0f / (1.0f + 0.2316419f * ax);
        float poly = 1.330274429f;
        poly = -1.821255978f + k * poly;
        poly = 1.781477937f + k * poly;
        poly = -0.356563782f + k * poly;
        poly = 0.31938153f + k * poly;
        poly = k * poly;
        const float n =
            1.0f - 0.3989422804f *
                       std::exp(-0.5f * ax * ax) * poly;
        return negative ? 1.0f - n : n;
    };

    // The dataset begins at the first allocation (0x10000).
    const Addr base = 0x10000;
    for (unsigned i = 0; i < 64; ++i) {
        const Addr a = base + 24 * i;
        const float s = mem.readFloat(a + 0);
        const float k = mem.readFloat(a + 4);
        const float r = mem.readFloat(a + 8);
        const float v = mem.readFloat(a + 12);
        const float t = mem.readFloat(a + 16);
        const float type = mem.readFloat(a + 20);

        const float sqrtT = std::sqrt(t);
        const float d1 =
            (std::log(s / k) + (r + 0.5f * v * v) * t) / (v * sqrtT);
        const float d2 = d1 - v * sqrtT;
        const float disc = std::exp(-r * t);
        const float call = s * cndf(d1) - k * disc * cndf(d2);
        const float put = k * disc * (1.0f - cndf(d2)) -
                          s * (1.0f - cndf(d1));
        const float expected = type > 0.5f ? put : call;

        EXPECT_NEAR(outputs[i], expected,
                    1e-3 + 1e-3 * std::fabs(expected))
            << "option " << i;
    }
}

TEST(Golden, FftMatchesDirectDft)
{
    // The kernel produces a decimation-in-frequency FFT in bit-reversed
    // order; compare magnitudes against a direct O(n^2) DFT of the
    // stored input signal after bit-reversing the indices.
    auto workload = makeWorkload("fft");
    ExperimentConfig config;
    config.dataset.scale = 0.0625; // n = 256
    SimMemory mem;
    workload->prepare(mem, config.dataset);

    const Addr reBase = 0x10000;
    const unsigned n = 256;
    std::vector<std::complex<double>> input(n);
    for (unsigned i = 0; i < n; ++i)
        input[i] = {mem.readFloat(reBase + 4 * i), 0.0};

    const Program prog = workload->build();
    Simulator sim(prog, mem, {});
    sim.run();
    const std::vector<double> out = workload->readOutputs(mem);
    ASSERT_EQ(out.size(), 2 * n);

    auto bitrev = [&](unsigned idx) {
        unsigned rev = 0;
        for (unsigned b = 0; b < 8; ++b) // log2(256)
            rev = (rev << 1) | ((idx >> b) & 1);
        return rev;
    };

    for (unsigned k = 0; k < n; k += 17) {
        std::complex<double> dft = 0.0;
        for (unsigned t = 0; t < n; ++t)
            dft += input[t] *
                   std::polar(1.0, -2.0 * M_PI * k * t / n);
        const unsigned pos = bitrev(k);
        const std::complex<double> got(out[pos], out[n + pos]);
        EXPECT_NEAR(std::abs(got), std::abs(dft),
                    1e-2 + 1e-3 * std::abs(dft))
            << "bin " << k;
    }
}

TEST(Golden, SobelMatchesHostConvolution)
{
    auto workload = makeWorkload("sobel");
    ExperimentConfig config;
    config.dataset.scale = 0.01;
    SimMemory mem;
    workload->prepare(mem, config.dataset);
    const Program prog = workload->build();
    Simulator sim(prog, mem, {});
    sim.run();
    const std::vector<double> out = workload->readOutputs(mem);

    const Addr imgBase = 0x10000;
    const unsigned w = static_cast<unsigned>(std::sqrt(out.size()));
    ASSERT_EQ(static_cast<std::size_t>(w) * w, out.size());

    auto pixel = [&](unsigned y, unsigned x) {
        return mem.readFloat(imgBase +
                             4 * (static_cast<Addr>(y) * w + x));
    };
    for (unsigned y = 1; y < w - 1; y += 7) {
        for (unsigned x = 1; x < w - 1; x += 5) {
            const float gx =
                (pixel(y - 1, x + 1) + 2 * pixel(y, x + 1) +
                 pixel(y + 1, x + 1)) -
                (pixel(y - 1, x - 1) + 2 * pixel(y, x - 1) +
                 pixel(y + 1, x - 1));
            const float gy =
                (pixel(y + 1, x - 1) + 2 * pixel(y + 1, x) +
                 pixel(y + 1, x + 1)) -
                (pixel(y - 1, x - 1) + 2 * pixel(y - 1, x) +
                 pixel(y - 1, x + 1));
            const float expected =
                std::min(255.0f, std::sqrt(gx * gx + gy * gy));
            EXPECT_NEAR(out[static_cast<std::size_t>(y) * w + x],
                        expected, 1e-2 + 1e-3 * expected)
                << "(" << y << "," << x << ")";
        }
    }
}

TEST(Golden, KmeansOutputsAreCentroidColors)
{
    // Every output pixel of the final assignment pass must equal one of
    // the k final centroid colors exactly.
    auto workload = makeWorkload("kmeans");
    ExperimentConfig config;
    config.dataset.scale = 0.01;
    SimMemory mem;
    workload->prepare(mem, config.dataset);
    const Program prog = workload->build();
    Simulator sim(prog, mem, {});
    sim.run();
    const std::vector<double> out = workload->readOutputs(mem);
    ASSERT_EQ(out.size() % 3, 0u);

    // Centroids live in the second allocation: after the image
    // (pixels * 12 bytes, 64-aligned).
    const std::size_t pixels = out.size() / 3;
    const Addr centBase =
        0x10000 + ((pixels * 12 + 63) & ~static_cast<Addr>(63));
    std::vector<std::array<float, 3>> centroids;
    for (unsigned c = 0; c < 6; ++c)
        centroids.push_back({mem.readFloat(centBase + 12 * c),
                             mem.readFloat(centBase + 12 * c + 4),
                             mem.readFloat(centBase + 12 * c + 8)});

    for (std::size_t i = 0; i < pixels; i += 97) {
        bool matched = false;
        for (const auto &c : centroids) {
            if (static_cast<float>(out[3 * i]) == c[0] &&
                static_cast<float>(out[3 * i + 1]) == c[1] &&
                static_cast<float>(out[3 * i + 2]) == c[2]) {
                matched = true;
                break;
            }
        }
        EXPECT_TRUE(matched) << "pixel " << i;
    }
}

TEST(Golden, LavamdOutputsFiniteAndPotentialPositive)
{
    const RunResult r = runBaseline("lavamd");
    auto workload = makeWorkload("lavamd");
    // outputs = [pot, fx, fy, fz] per particle.
    ASSERT_EQ(r.outputs.size() % 4, 0u);
    for (std::size_t i = 0; i < r.outputs.size(); i += 4) {
        EXPECT_TRUE(std::isfinite(r.outputs[i]));
        // Each particle interacts at least with itself: exp(0) * q > 0.
        EXPECT_GT(r.outputs[i], 0.0) << "particle " << i / 4;
    }
}

TEST(Golden, SradStaysInIntensityRange)
{
    const RunResult r = runBaseline("srad");
    for (double v : r.outputs) {
        EXPECT_TRUE(std::isfinite(v));
        EXPECT_GT(v, 0.0);
        EXPECT_LT(v, 2.0);
    }
}

TEST(Golden, HotspotTemperaturesBounded)
{
    const RunResult r = runBaseline("hotspot");
    for (double v : r.outputs) {
        EXPECT_TRUE(std::isfinite(v));
        EXPECT_GT(v, 20.0);  // above ambient floor
        EXPECT_LT(v, 150.0); // below thermal runaway
    }
}

TEST(Golden, JpegDcCoefficientTracksBlockMean)
{
    // The (0,0) coefficient of each block is the scaled block mean of
    // level-shifted pixels divided by Q[0][0]=16: spot-check block 0.
    auto workload = makeWorkload("jpeg");
    ExperimentConfig config;
    config.dataset.scale = 0.01;
    SimMemory mem;
    workload->prepare(mem, config.dataset);
    const Program prog = workload->build();
    Simulator sim(prog, mem, {});
    sim.run();
    const std::vector<double> out = workload->readOutputs(mem);
    const unsigned w = static_cast<unsigned>(std::sqrt(out.size()));

    const Addr imgBase = 0x10000;
    double sum = 0.0;
    for (unsigned y = 0; y < 8; ++y) {
        for (unsigned x = 0; x < 8; ++x) {
            const auto raw = static_cast<std::uint16_t>(
                mem.read(imgBase + 2 * (static_cast<Addr>(y) * w + x),
                         2));
            sum += static_cast<std::int16_t>(raw);
        }
    }
    // Two passes of the 0.3536-scaled DCT: DC = mean * 8 * 0.125... the
    // separable transform gives DC = sum/8; dequantized output ~ that.
    const double expectedDc = sum / 8.0;
    EXPECT_NEAR(out[0], expectedDc, 24.0); // within 1.5 quant steps
}

} // namespace
} // namespace axmemo
