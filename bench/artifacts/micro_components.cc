/**
 * @file
 * google-benchmark micro-benchmarks of the substrate components: CRC
 * engine throughput (bit-serial vs 8-bit table step), LUT
 * lookup/insert, cache access and its MRU way hint, sparse simulated
 * memory, whole simulator instruction throughput, and the disabled and
 * enabled costs of the trace and span instrumentation. Registered as
 * the "micro" artifact so `axmemo run micro` works; the standalone
 * bench/micro_components binary runs the same registered benchmarks
 * with the full google-benchmark command line.
 */

#include <sstream>

#include <benchmark/benchmark.h>

#include "bench/artifacts/artifacts.hh"
#include "common/rng.hh"
#include "obs/span.hh"
#include "obs/trace.hh"

namespace {

using namespace axmemo;

void
BM_CrcTableDriven(benchmark::State &state)
{
    const CrcEngine engine(CrcSpec::crc32());
    std::vector<std::uint8_t> data(state.range(0));
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 31);
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.compute(data.data(),
                                                data.size()));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_CrcTableDriven)->Arg(4)->Arg(64)->Arg(4096);

void
BM_CrcBitSerial(benchmark::State &state)
{
    const CrcEngine engine(CrcSpec::crc32());
    for (auto _ : state) {
        std::uint64_t s = engine.initial();
        for (unsigned i = 0; i < 64; ++i)
            s = engine.updateByteSerial(s, static_cast<std::uint8_t>(i));
        benchmark::DoNotOptimize(engine.finalize(s));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_CrcBitSerial);

void
BM_LutLookupHit(benchmark::State &state)
{
    LookupTable lut({.name = "bench", .sizeBytes = 8 * 1024,
                     .dataBytes = 4});
    for (std::uint64_t i = 0; i < 512; ++i)
        lut.insert(0, i * 2654435761u, i);
    std::uint64_t key = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            lut.lookup(0, (key % 512) * 2654435761u));
        ++key;
    }
}
BENCHMARK(BM_LutLookupHit);

void
BM_LutInsertEvict(benchmark::State &state)
{
    LookupTable lut({.name = "bench", .sizeBytes = 4 * 1024,
                     .dataBytes = 4});
    std::uint64_t key = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lut.insert(0, key * 0x9e3779b9u, key));
        ++key;
    }
}
BENCHMARK(BM_LutInsertEvict);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache({.name = "bench", .sizeBytes = 32 * 1024, .assoc = 4,
                 .lineSize = 64, .hitLatency = 1});
    Rng rng(7);
    std::vector<Addr> addrs(4096);
    for (auto &a : addrs)
        a = rng.below(1 << 20);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(addrs[i++ & 4095], false));
    }
}
BENCHMARK(BM_CacheAccess);

/**
 * One pass of a 4096-access stream over a 16 KB span (mostly
 * sequential 8-byte strides, a random jump every ~16 accesses, every
 * 8th access a write) through a 32 KB cache of @p ways ways: the
 * steady-state hit path the MRU way hint accelerates.
 */
void
cacheHintStream(benchmark::State &state, bool hinted)
{
    const auto ways = static_cast<unsigned>(state.range(0));
    Cache cache({.name = "bench", .sizeBytes = 32 * 1024, .assoc = ways,
                 .lineSize = 64, .hitLatency = 1});
    cache.setMruHintEnabled(hinted);
    Rng rng(1234);
    constexpr Addr base = 0x10000;
    constexpr std::uint64_t span = 16 * 1024;
    std::vector<Addr> addrs(4096);
    Addr a = base;
    for (Addr &addr : addrs) {
        if (rng.below(16) == 0)
            a = base + (rng.below(span) & ~Addr{7});
        addr = a;
        a = a + 16 > base + span ? base : a + 8;
    }
    for (auto _ : state) {
        std::uint64_t hits = 0;
        for (std::size_t i = 0; i < addrs.size(); ++i)
            hits += cache.access(addrs[i], (i & 7) == 7).hit ? 1 : 0;
        benchmark::DoNotOptimize(hits);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(addrs.size()));
}

// The hinted/scan pair brackets Cache::kMruScanMinAssoc: at 32 ways the
// hint probe is live and must beat the way scan; at 8 ways it
// auto-disables, so both rows run the same code and their ratio guards
// against the hint re-engaging where the scan wins.
void
BM_CacheHinted(benchmark::State &state)
{
    cacheHintStream(state, true);
}
BENCHMARK(BM_CacheHinted)->ArgName("ways")->Arg(32)->Arg(8);

void
BM_CacheScan(benchmark::State &state)
{
    cacheHintStream(state, false);
}
BENCHMARK(BM_CacheScan)->ArgName("ways")->Arg(32)->Arg(8);

void
BM_SimMemoryRw(benchmark::State &state)
{
    SimMemory mem;
    Rng rng(9);
    std::uint64_t i = 0;
    for (auto _ : state) {
        const Addr a = (i * 4099) & ((1 << 22) - 1);
        mem.write32(a, static_cast<std::uint32_t>(i));
        benchmark::DoNotOptimize(mem.read32(a));
        ++i;
    }
}
BENCHMARK(BM_SimMemoryRw);

void
BM_SimulatorThroughput(benchmark::State &state)
{
    // Dense ALU loop: measures instructions simulated per second.
    SimMemory mem;
    KernelBuilder b("throughput");
    const IReg acc = b.imm(0);
    b.forRange(0, 4096, 1, [&](IReg i) {
        const IReg t1 = b.add(acc, i);
        const IReg t2 = b.mul(t1, 3);
        const IReg t3 = b.bxor(t2, 0x55);
        b.assign(acc, b.add(t3, 1));
    });
    const Program prog = b.finish();

    std::uint64_t insts = 0;
    for (auto _ : state) {
        Simulator sim(prog, mem, {});
        const SimStats &stats = sim.run();
        insts += stats.macroInsts;
        benchmark::DoNotOptimize(stats.cycles);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(insts));
}
BENCHMARK(BM_SimulatorThroughput);

void
BM_SimulatorTraceCapture(benchmark::State &state)
{
    // Same dense loop with a reusable TraceBuffer attached: the delta
    // against BM_SimulatorThroughput is the cost of trace capture.
    SimMemory mem;
    KernelBuilder b("trace");
    const IReg acc = b.imm(0);
    b.forRange(0, 4096, 1, [&](IReg i) {
        const IReg t1 = b.add(acc, i);
        const IReg t2 = b.mul(t1, 3);
        b.assign(acc, b.add(t2, 1));
    });
    const Program prog = b.finish();

    TraceBuffer buffer(1u << 16);
    std::uint64_t insts = 0;
    for (auto _ : state) {
        buffer.reset();
        Simulator sim(prog, mem, {});
        sim.setTraceBuffer(&buffer);
        const SimStats &stats = sim.run();
        insts += stats.macroInsts;
        benchmark::DoNotOptimize(buffer.entries().size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(insts));
}
BENCHMARK(BM_SimulatorTraceCapture);

void
BM_SimulatorWorkloadThroughput(benchmark::State &state)
{
    // End-to-end simulated-instruction throughput on a real benchmark,
    // through the sweep engine's prepared path: dataset synthesis and
    // program build happen once, each run clones the memory image.
    const auto workload = makeWorkload("blackscholes");
    SimMemory master;
    WorkloadParams params;
    params.scale = 0.01;
    workload->prepare(master, params);
    const Program prog = workload->build();
    const ExperimentConfig config;
    const ExperimentRunner runner(config);

    std::uint64_t insts = 0;
    for (auto _ : state) {
        SimMemory mem = master.clone();
        const RunResult r =
            runner.runPrepared(*workload, "baseline", prog, mem);
        insts += r.stats.macroInsts;
        benchmark::DoNotOptimize(r.stats.cycles);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(insts));
}
BENCHMARK(BM_SimulatorWorkloadThroughput);

void
BM_MemoUnitLookupUpdate(benchmark::State &state)
{
    MemoUnitConfig config;
    config.quality.enabled = false;
    MemoizationUnit unit(config);
    std::uint64_t i = 0;
    for (auto _ : state) {
        unit.feed(0, 0, i & 0xffff, 4, 0, i);
        const MemoLookupResult res = unit.lookup(0, 0, i);
        if (!res.hit)
            unit.update(0, 0, i);
        benchmark::DoNotOptimize(res.latency);
        ++i;
    }
}
BENCHMARK(BM_MemoUnitLookupUpdate);

// ------------------------------------------------ instrumentation cost
//
// The disabled-instrumentation budget (<= 0.5%) is the time of a guard
// row over BM_GuardBaseline: the same dependent-multiply loop with a
// trace point or a span scope in its body. Under AXMEMO_NO_TRACE the
// trace guard compiles away and the enabled trace row is not
// registered; spans are compiled into every build. Rows
// that would touch instrumentation the caller has switched on (flags
// from --debug-flags, a --trace-timeline recording) skip instead of
// measuring, so `axmemo run` never alters the run's own traces.

constexpr std::uint64_t kGuardOps = 1024;

inline std::uint64_t
guardMix(std::uint64_t a, std::uint64_t i)
{
    return (a ^ i) * 0x100000001b3ull;
}

void
BM_GuardBaseline(benchmark::State &state)
{
    std::uint64_t a = 0x9e3779b97f4a7c15ull;
    for (auto _ : state) {
        for (std::uint64_t i = 0; i < kGuardOps; ++i)
            a = guardMix(a, i);
        benchmark::DoNotOptimize(a);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                      kGuardOps));
}
BENCHMARK(BM_GuardBaseline);

void
BM_TraceGuardDisabled(benchmark::State &state)
{
    if (trace::anyEnabled()) {
        state.SkipWithError("trace flags are enabled");
        return;
    }
    std::uint64_t a = 0x9e3779b97f4a7c15ull;
    for (auto _ : state) {
        for (std::uint64_t i = 0; i < kGuardOps; ++i) {
            AXM_TRACE(Exec, "micro", "never emitted ", i);
            a = guardMix(a, i);
        }
        benchmark::DoNotOptimize(a);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                      kGuardOps));
}
BENCHMARK(BM_TraceGuardDisabled);

void
BM_SpanGuardDisabled(benchmark::State &state)
{
    if (telemetry::enabled()) {
        state.SkipWithError("a span timeline is being recorded");
        return;
    }
    std::uint64_t a = 0x9e3779b97f4a7c15ull;
    for (auto _ : state) {
        for (std::uint64_t i = 0; i < kGuardOps; ++i) {
            AXM_SPAN("micro", "never-recorded");
            a = guardMix(a, i);
        }
        benchmark::DoNotOptimize(a);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                      kGuardOps));
}
BENCHMARK(BM_SpanGuardDisabled);

#ifndef AXMEMO_NO_TRACE

/** One formatted trace line through the mutex-guarded sink, written to
 * /dev/null so the row measures formatting and the write call, not a
 * terminal. */
void
BM_TraceLineEnabled(benchmark::State &state)
{
    if (trace::anyEnabled()) {
        state.SkipWithError("trace flags are enabled");
        return;
    }
    if (!trace::openTraceFile("/dev/null")) {
        state.SkipWithError("cannot open /dev/null");
        return;
    }
    trace::setFlag(trace::Flag::Exec, true);
    std::uint64_t line = 0;
    for (auto _ : state) {
        AXM_TRACE(Exec, "micro", "line ", line, " of the enabled row");
        ++line;
    }
    trace::setFlag(trace::Flag::Exec, false);
    trace::closeTraceFile();
}
BENCHMARK(BM_TraceLineEnabled);

#endif // AXMEMO_NO_TRACE

/** One recorded span: open, close and the ring push on the recording
 * thread. The ring is drained (and the events dropped) with the timer
 * paused, before it can fill, so the row never measures the
 * dropped-event path and the process never accumulates events. */
void
BM_SpanEnabled(benchmark::State &state)
{
    if (telemetry::enabled()) {
        state.SkipWithError("a span timeline is being recorded");
        return;
    }
    std::vector<telemetry::SpanEvent> drained;
    telemetry::setEnabled(true);
    std::uint64_t spans = 0;
    for (auto _ : state) {
        {
            AXM_SPAN("micro", "recorded");
        }
        if ((++spans & 0xfff) == 0) {
            state.PauseTiming();
            telemetry::detail::drainAll(drained);
            drained.clear();
            state.ResumeTiming();
        }
    }
    telemetry::setEnabled(false);
    telemetry::detail::drainAll(drained);
}
BENCHMARK(BM_SpanEnabled);

} // namespace

namespace axmemo::bench {
namespace {

class MicroComponentsArtifact final : public Artifact
{
  public:
    std::string name() const override { return "micro"; }
    // No banner: the google-benchmark context header replaces it.
    std::string title() const override { return {}; }
    std::string
    description() const override
    {
        return "google-benchmark micro-benchmarks of the substrate "
               "components (CRC, LUT, caches, simulator) and of the "
               "trace/span instrumentation cost";
    }

    void
    enqueue(SweepEngine &) override
    {
        // Wall-clock micro-benchmarks bypass the sweep engine.
    }

    ArtifactResult
    reduce(const std::vector<SweepOutcome> &) override
    {
        int argc = 1;
        char arg0[] = "axmemo-micro";
        char *argv[] = {arg0, nullptr};
        benchmark::Initialize(&argc, argv);

        std::ostringstream out;
        // Tabular without OO_Color: the report is captured text, so it
        // must carry no ANSI colour escapes.
        benchmark::ConsoleReporter reporter(
            benchmark::ConsoleReporter::OO_Tabular);
        reporter.SetOutputStream(&out);
        reporter.SetErrorStream(&out);
        benchmark::RunSpecifiedBenchmarks(&reporter);

        ArtifactResult result;
        result.text = out.str();
        return result;
    }
};

AXMEMO_REGISTER_ARTIFACT(50, MicroComponentsArtifact)

} // namespace
} // namespace axmemo::bench
