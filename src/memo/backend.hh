/**
 * @file
 * The MemoBackend seam: pluggable memoization strategies.
 *
 * Every execution flavor of a run — the plain baseline, the paper's
 * hardware memoization unit, the Section 6.2 software contenders, and
 * any future backend (faulty-LUT storage, a served memo table) — is a
 * MemoBackend: a named strategy that takes a prepared workload and
 * produces a RunResult. ExperimentRunner dispatches through the
 * registry by name, the sweep engine treats the backend name as a
 * first-class sweep axis, and the checkpoint journal keys jobs by it.
 *
 * Adding a backend is one registration: implement the interface, add
 * it to the builtin catalog in core/memo_backends.cc, and every driver
 * surface — `axmemo list`, the cli's --mode flag, sweep journaling,
 * manifest rows — picks it up with no enum sweep through the codebase.
 *
 * This header lives in the memo library (links only common + crc), so
 * the run context uses forward declarations; the concrete builtin
 * backends live in core where the simulator, transforms and energy
 * model are all visible.
 */

#ifndef AXMEMO_MEMO_BACKEND_HH
#define AXMEMO_MEMO_BACKEND_HH

#include <memory>
#include <string>
#include <vector>

#include "common/expected.hh"

namespace axmemo {

class Workload;
class Program;
class SimMemory;
class EnergyModel;
struct ExperimentConfig;
struct SimConfig;
struct RunResult;
struct RunControl;

/**
 * Hooks an incremental driver threads through the run context. The
 * batch path leaves them defaulted; `axmemo serve` sets them so the
 * generic session driver polls for cancellation and labels each
 * phase's timeline span with the server's lane.
 */
struct BackendSessionHooks
{
    /** Polled between session phases (on top of the simulator's own
     * in-run polling via SimConfig::control). */
    const RunControl *control = nullptr;
    /** Span category for per-phase timeline spans; null = no spans. */
    const char *spanCategory = nullptr;
};

/** Everything a backend needs to execute one prepared run. */
struct BackendRunContext
{
    const Workload &workload;
    const ExperimentConfig &config;
    /** The workload's baseline AxIR program (read-only, shared). */
    const Program &baselineProg;
    /** Private copy of the prepared memory image; mutated by the run. */
    SimMemory &mem;
    /** Prefilled with cpu/hierarchy/control; hardware backends attach
     * their memo unit configuration here before simulating. */
    SimConfig &sim;
    const EnergyModel &energy;
    BackendSessionHooks session{};
};

/**
 * One run in flight, split at phase boundaries so a long-lived driver
 * (the serve worker thread) can interleave other work between the
 * expensive pieces. A session borrows its BackendRunContext — the
 * context (and everything it references) must outlive the session.
 *
 * The contract: call step() until it returns false, then finish()
 * exactly once. step() executes one whole phase (e.g. the memoization
 * transform, or the simulation to halt); phase() names the phase the
 * next step() will run. RunSession (core/experiment.hh) is the one
 * driver — the batch path and the server both execute sessions through
 * it, which is what keeps their outputs identical.
 */
class BackendSession
{
  public:
    virtual ~BackendSession() = default;

    /** Execute the next phase. @return true while phases remain. */
    virtual bool step() = 0;

    /** Name of the phase the next step() runs ("build", "simulate"),
     * or "done" after the last step. */
    virtual const char *phase() const = 0;

    /** Fold the completed run into @p result (stats, energy,
     * lookups/hits, regions). Panics if phases remain. */
    virtual void finish(RunResult &result) = 0;
};

/** One memoization strategy; see file comment. */
class MemoBackend
{
  public:
    virtual ~MemoBackend() = default;

    /** Stable identifier: the sweep axis value, journal key component
     * and report label. Lower-case, no whitespace. */
    virtual std::string name() const = 0;

    /** One-line human description for `axmemo --list`. */
    virtual std::string description() const = 0;

    /** True when the run attaches the hardware memoization unit (the
     * run report renders the memo-unit section for these). */
    virtual bool hardwareMemo() const { return false; }

    /** Open an incremental session over one prepared run; see
     * BackendSession for the driving contract. */
    virtual std::unique_ptr<BackendSession>
    prepare(const BackendRunContext &ctx) const = 0;
};

/** Name-keyed backend catalog; see file comment. */
class MemoBackendRegistry
{
  public:
    static MemoBackendRegistry &instance();

    /** Register @p backend; @p order controls listing position.
     * Duplicate names are a programming error (panics). */
    void add(int order, std::unique_ptr<MemoBackend> backend);

    /** @return the backend named @p name, or nullptr. */
    const MemoBackend *find(const std::string &name) const;

    /**
     * find() with a structured error: unknown names produce an
     * ErrorCode::Config Expected carrying a did-you-mean suggestion
     * and the list of registered backends, for the driver surfaces to
     * report verbatim.
     */
    Expected<const MemoBackend *> resolve(const std::string &name) const;

    /** Registered backends in (order, name) order. */
    std::vector<const MemoBackend *> list() const;

  private:
    struct Entry
    {
        int order = 0;
        std::unique_ptr<MemoBackend> backend;
    };
    std::vector<Entry> entries_;
};

/** Plain Levenshtein distance (shared by every did-you-mean surface:
 * backend names here, subcommand and flag names in the CLI). */
std::size_t editDistance(const std::string &a, const std::string &b);

/** The closest of @p candidates to @p name when it is plausibly a typo
 * (within 3 edits and closer than "replace everything"); empty string
 * when none qualifies. */
std::string suggestClosest(const std::string &name,
                           const std::vector<std::string> &candidates);

} // namespace axmemo

#endif // AXMEMO_MEMO_BACKEND_HH
