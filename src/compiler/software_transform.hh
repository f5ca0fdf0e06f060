/**
 * @file
 * Software memoization baselines (Section 6.2).
 *
 * SoftwareMemoTransform rewrites hinted regions into pure-software
 * memoization with no hardware support. Its probe and fill plug into
 * the region rewriter every transform shares (region_rewriter.hh), so
 * it memoizes exactly the regions the hardware pass would:
 *
 *  - Hash: either the 8-bit-parallel table-driven CRC the paper's software
 *    contender uses (a table load, XORs, shifts and masks per input byte),
 *    or ATM's shuffled byte-sampling hash (a fixed number of sampled input
 *    bytes folded multiplicatively).
 *  - LUT: a direct-indexed array in simulated memory, indexed by
 *    hash & (2^N - 1) with NO tag verification — exactly the paper's
 *    software design, whose discarded hash bits cause its nonzero
 *    collision rate and higher output error.
 *  - Invalidation: a generation byte per entry (the invalidate points of
 *    the spec bump the generation register — one instruction — instead of
 *    sweeping the array).
 *
 * The transform also plants lookup/hit counter registers so benches can
 * report the software hit rate; the two counter adds per invocation are
 * part of the software overhead, as real instrumentation would be.
 */

#ifndef AXMEMO_COMPILER_SOFTWARE_TRANSFORM_HH
#define AXMEMO_COMPILER_SOFTWARE_TRANSFORM_HH

#include <cstdint>
#include <vector>

#include "compiler/memo_spec.hh"
#include "compiler/transform.hh"
#include "isa/program.hh"
#include "memsys/sim_memory.hh"

namespace axmemo {

/** Hash function the software baseline computes. */
enum class SwHashKind
{
    TableCrc,  ///< byte-wise table-driven CRC32 (the paper's sw contender)
    ByteSample ///< ATM's shuffled byte sampling
};

/** Software-memoization parameters. */
struct SwMemoConfig
{
    SwHashKind hash = SwHashKind::TableCrc;
    /**
     * log2 of LUT array entries. The paper plateaus at 2^28 (1 GB of 4 B
     * entries); we default to 2^22, past the plateau for the scaled
     * datasets, and configurable up to 2^28.
     */
    unsigned log2Entries = 22;
    /** Bytes sampled by the ByteSample hash. */
    unsigned sampleBytes = 4;
    /**
     * Dependent bookkeeping instructions charged per invocation,
     * modelling ATM's task-runtime dispatch cost; 0 for the plain
     * software-LUT contender.
     */
    unsigned taskOverheadInsts = 0;
    /** Seed for ATM's index shuffle. */
    std::uint64_t seed = 0x41544d; // "ATM"
};

/** Software rewrite result: program + counter registers per region. */
struct SwTransformResult
{
    Program program;
    /** Integer registers holding per-region lookup / hit counters. */
    struct Counters
    {
        int regionId;
        IReg lookups;
        IReg hits;
    };
    std::vector<Counters> counters;
    std::vector<RegionTransformInfo> regions;
};

/** The software memoization pass; see file comment. */
class SoftwareMemoTransform
{
  public:
    /**
     * Rewrite @p prog per @p spec. Allocates the hash table and the LUT
     * arrays in @p mem (call again after clearing memory).
     */
    static SwTransformResult apply(const Program &prog,
                                   const MemoSpec &spec, SimMemory &mem,
                                   const SwMemoConfig &config = {});
};

} // namespace axmemo

#endif // AXMEMO_COMPILER_SOFTWARE_TRANSFORM_HH
