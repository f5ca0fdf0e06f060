/**
 * @file
 * iACT/HPAC-style software approximate memoization (input similarity).
 *
 * Where the Section 6.2 software contenders hash exact (truncated) input
 * bits into a direct-indexed array, the iACT family [Mishra et al.;
 * HPAC's approx_memoize_iact runtime] keeps a small pool of recently
 * seen input tuples and declares a hit when every input of the current
 * invocation is within a RELATIVE ERROR threshold of a stored tuple:
 *
 *   |x - x_stored| <= threshold * |x_stored|   for every input x.
 *
 * IactTransform rewrites each hinted region accordingly, entirely in
 * software in simulated memory. It is a probe and a fill on the shared
 * region rewriter (region_rewriter.hh):
 *
 *  - Pools: `pools` independent tables model per-thread memo pools;
 *    invocations stripe round-robin across them, so each pool sees the
 *    disjoint slice of work a worker thread would.
 *  - Tables: 2^log2Entries entries per pool, scanned linearly (the
 *    tables are deliberately tiny — iACT's design point), replaced
 *    FIFO via a per-pool rotor byte. The miss path captures the inputs
 *    into the victim entry before the body runs; the fill adds the
 *    outputs.
 *  - Matching: per-input relative-error compare in single precision
 *    (the threshold is rounded to float); float inputs compare
 *    natively, integer inputs through int->float conversion. A zero
 *    threshold degenerates to exact equality (Feq / Seq), so
 *    threshold=0 reproduces exact software memoization semantics on
 *    the pool-sized table. At the edges:
 *      - -0 and +0 match each other; a stored zero has no slack, so
 *        only a zero input matches it.
 *      - NaN on either side never matches.
 *      - Above threshold 0 a stored +-Inf has infinite tolerance: any
 *        finite input, and the opposite infinity, matches it, while
 *        the same infinity misses (Inf - Inf is NaN). At threshold 0,
 *        Feq matches equal infinities.
 *      - A denormal's tolerance can round to 0, leaving exact matches.
 *      - Integers that convert to the same float (2^24 and 2^24 + 1)
 *        match at any threshold above 0, but not at 0 (Seq compares
 *        the integers).
 *  - Invalidation: the generation byte scheme of the software LUT
 *    (invalidate points bump a generation register; stale entries
 *    mismatch without sweeping memory).
 *
 * The scan loop, compares and stores are honest AxIR instructions, so
 * the simulator charges iACT its real software overhead the same way
 * the SoftwareLut/ATM contenders pay theirs.
 */

#ifndef AXMEMO_COMPILER_IACT_TRANSFORM_HH
#define AXMEMO_COMPILER_IACT_TRANSFORM_HH

#include <cstdint>

#include "compiler/software_transform.hh"

namespace axmemo {

/** iACT-style similarity memoization knobs. */
struct IactConfig
{
    /** Per-input relative-error tolerance; 0 = exact match. */
    double threshold = 0.01;
    /** log2 of entries per pool; tables are scanned linearly, so the
     * transform caps this at 8 (256 entries). */
    unsigned log2Entries = 4;
    /** Number of per-thread memo pools (power of two). */
    unsigned pools = 4;
    /** Dependent bookkeeping instructions charged per invocation
     * (runtime dispatch cost; 0 = none). */
    unsigned taskOverheadInsts = 0;
};

/** The iACT rewriting pass; see file comment. Reuses the software
 * transform's result shape (program + per-region counter registers). */
class IactTransform
{
  public:
    /**
     * Rewrite @p prog per @p spec. Allocates the pool tables in
     * @p mem (call again after clearing memory). Invalid configs
     * raise ErrorCode::Config.
     */
    static SwTransformResult apply(const Program &prog,
                                   const MemoSpec &spec, SimMemory &mem,
                                   const IactConfig &config = {});
};

} // namespace axmemo

#endif // AXMEMO_COMPILER_IACT_TRANSFORM_HH
