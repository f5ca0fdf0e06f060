#include "obs/profiler.hh"

#include "obs/trace.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>

namespace axmemo {
namespace obs {

namespace {

struct Cell
{
    std::uint64_t calls = 0;
    double seconds = 0.0;
    std::size_t order = 0; ///< first-recorded rank for stable reports
};

struct State
{
    mutable std::mutex mutex;
    std::map<std::pair<std::string, std::string>, Cell> cells;
    std::size_t nextOrder = 0;
};

State &
state()
{
    static State s;
    return s;
}

} // namespace

Profiler &
Profiler::instance()
{
    static Profiler profiler;
    return profiler;
}

void
Profiler::record(const std::string &phase, double seconds)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    Cell &cell = s.cells[{phase, threadLabel()}];
    if (cell.calls == 0)
        cell.order = s.nextOrder++;
    ++cell.calls;
    cell.seconds += seconds;
}

std::vector<PhaseTiming>
Profiler::snapshot() const
{
    State &s = state();
    std::vector<PhaseTiming> out;
    std::vector<std::size_t> order;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        out.reserve(s.cells.size());
        order.reserve(s.cells.size());
        for (const auto &kv : s.cells) {
            out.push_back({kv.first.first, kv.first.second,
                           kv.second.calls, kv.second.seconds});
            order.push_back(kv.second.order);
        }
    }
    std::vector<std::size_t> idx(out.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        return order[a] < order[b];
    });
    std::vector<PhaseTiming> sorted;
    sorted.reserve(out.size());
    for (std::size_t i : idx)
        sorted.push_back(std::move(out[i]));
    return sorted;
}

std::vector<PhaseTiming>
Profiler::snapshotByPhase() const
{
    std::vector<PhaseTiming> merged;
    for (const PhaseTiming &cell : snapshot()) {
        auto it = std::find_if(merged.begin(), merged.end(),
                               [&](const PhaseTiming &m) {
                                   return m.phase == cell.phase;
                               });
        if (it == merged.end()) {
            merged.push_back({cell.phase, "", cell.calls, cell.seconds});
        } else {
            it->calls += cell.calls;
            it->seconds += cell.seconds;
        }
    }
    return merged;
}

void
Profiler::reset()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.cells.clear();
    s.nextOrder = 0;
}

std::string
Profiler::renderText() const
{
    const std::vector<PhaseTiming> byPhase = snapshotByPhase();
    const std::vector<PhaseTiming> all = snapshot();
    double maxSeconds = 0.0;
    for (const PhaseTiming &p : byPhase)
        maxSeconds = std::max(maxSeconds, p.seconds);

    std::string out;
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%-32s %10s %14s %8s\n", "phase",
                  "calls", "seconds", "rel");
    out += buf;
    for (const PhaseTiming &p : byPhase) {
        const double rel = maxSeconds > 0.0 ? p.seconds / maxSeconds : 0.0;
        std::snprintf(buf, sizeof(buf), "%-32s %10llu %14.6f %7.1f%%\n",
                      p.phase.c_str(),
                      static_cast<unsigned long long>(p.calls), p.seconds,
                      rel * 100.0);
        out += buf;
        // Per-worker breakdown, shown only when phases actually ran on
        // labelled threads.
        for (const PhaseTiming &cell : all) {
            if (cell.phase != p.phase || cell.thread.empty())
                continue;
            std::snprintf(buf, sizeof(buf),
                          "  %-30s %10llu %14.6f\n",
                          ("[" + cell.thread + "]").c_str(),
                          static_cast<unsigned long long>(cell.calls),
                          cell.seconds);
            out += buf;
        }
    }
    if (byPhase.empty())
        out += "(no phases recorded)\n";
    return out;
}

ScopedPhase::ScopedPhase(const char *phase)
    : phase_(phase), span_("phase", phase),
      start_(std::chrono::steady_clock::now())
{
    AXM_TRACE(Prof, "prof", "begin ", phase_);
}

ScopedPhase::~ScopedPhase()
{
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start_;
    Profiler::instance().record(phase_, elapsed.count());
    // Elapsed time stays out of the trace line: host wall-clock varies
    // run to run, and serial traces must stay byte-reproducible (the
    // aggregate is available through `axmemo profile`).
    AXM_TRACE(Prof, "prof", "end ", phase_);
}

} // namespace obs
} // namespace axmemo
