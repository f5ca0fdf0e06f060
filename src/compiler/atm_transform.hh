/**
 * @file
 * Approximate Task Memoization (ATM) baseline [Brumar et al., IPDPS'17],
 * re-implemented from the description in Section 6.2 of the AxMemo paper:
 * the inputs are concatenated into a byte vector, an index vector is
 * shuffled, and the first n sampled bytes form the hash key for a software
 * lookup table. Being a task-runtime technique, every memoized invocation
 * additionally pays a task dispatch/bookkeeping cost, which is what drags
 * small-kernel benchmarks into slowdown in the paper's comparison.
 *
 * ATM is the software LUT's rewrite (software_transform.hh) with the
 * byte-sampling hash and a dispatch chain per invocation, so this
 * header only maps its knobs onto SwMemoConfig.
 */

#ifndef AXMEMO_COMPILER_ATM_TRANSFORM_HH
#define AXMEMO_COMPILER_ATM_TRANSFORM_HH

#include "compiler/software_transform.hh"

namespace axmemo {

/** ATM-specific knobs. */
struct AtmConfig
{
    /** Bytes sampled from the shuffled input vector. */
    unsigned sampleBytes = 8;
    /** Task-runtime dispatch cost per memoized invocation (instructions).
     * Calibrated so the per-task overhead matches the tens-of-nanoseconds
     * task creation/bookkeeping a task-based runtime pays, which is what
     * drags ATM's small-kernel benchmarks into slowdown in the paper. */
    unsigned taskOverheadInsts = 80;
    /** log2 of software LUT entries. */
    unsigned log2Entries = 22;
    /** Index-shuffle seed. */
    std::uint64_t seed = 0x41544d;
};

/** The ATM rewriting pass (delegates to SoftwareMemoTransform). */
class AtmTransform
{
  public:
    static SwTransformResult
    apply(const Program &prog, const MemoSpec &spec, SimMemory &mem,
          const AtmConfig &config = {})
    {
        SwMemoConfig sw;
        sw.hash = SwHashKind::ByteSample;
        sw.sampleBytes = config.sampleBytes;
        sw.taskOverheadInsts = config.taskOverheadInsts;
        sw.log2Entries = config.log2Entries;
        sw.seed = config.seed;
        return SoftwareMemoTransform::apply(prog, spec, mem, sw);
    }
};

} // namespace axmemo

#endif // AXMEMO_COMPILER_ATM_TRANSFORM_HH
