/**
 * @file
 * The AxMemo code-generation pass (Section 5, step 4; Fig. 1).
 *
 * Every memoization transform rewrites each specified region into the
 * branch structure of Fig. 1 through one shared region rewriter
 * (region_rewriter.hh); a transform supplies only the probe, the miss
 * prologue and the fill. The right-hand column is the hardware pass:
 *
 *     <probe>                     ; loads feeding the region become
 *                                 ; ld_crc (fused, count as loads);
 *                                 ; reg_crc each remaining input in
 *                                 ; program order; lookup d, LUT_ID;
 *                                 ; br_miss MISS
 *     <unpack outputs from d>     ; hit: skip computation
 *     br CONT
 *   MISS:
 *     <miss prologue>             ; none (iACT captures its inputs)
 *     <original region body>
 *   FILL:
 *     <pack outputs into p>
 *     <fill>                      ; update p, LUT_ID
 *   CONT:
 *     ...
 *
 * Inputs/outputs come from liveness analysis of the hinted range; inputs
 * stream to the CRC unit in first-read program order. Up to two 32-bit
 * outputs pack into one 8-byte LUT entry (Section 3.3). Early exits inside
 * the region that jump past its end are rerouted through FILL so the
 * allocated LUT entry is always filled.
 */

#ifndef AXMEMO_COMPILER_TRANSFORM_HH
#define AXMEMO_COMPILER_TRANSFORM_HH

#include <string>
#include <vector>

#include "compiler/memo_spec.hh"
#include "isa/program.hh"

namespace axmemo {

/** Per-region summary of what the transform produced (Table 2 data). */
struct RegionTransformInfo
{
    int regionId = 0;
    LutId lut = 0;
    unsigned numInputs = 0;
    /** Total memoization-input bytes streamed per invocation. */
    unsigned inputBytes = 0;
    unsigned numOutputs = 0;
    unsigned outputBytes = 0;
    /** Loads converted into ld_crc (no extra instruction cost). */
    unsigned fusedLoads = 0;
};

/** Result of MemoTransform::apply. */
struct TransformResult
{
    Program program;
    /** LUT data width the memoization unit must be configured with. */
    unsigned dataBytes = 4;
    std::vector<RegionTransformInfo> regions;
};

/** The AxMemo rewriting pass; see file comment. */
class MemoTransform
{
  public:
    /**
     * Rewrite @p prog according to @p spec.
     * Fails (axm_fatal) if a region has stores, escaping branches, more
     * than two outputs, or external branches into its middle.
     */
    static TransformResult apply(const Program &prog, const MemoSpec &spec);
};

} // namespace axmemo

#endif // AXMEMO_COMPILER_TRANSFORM_HH
