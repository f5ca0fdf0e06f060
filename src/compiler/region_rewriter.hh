/**
 * @file
 * The region rewriter every memoization transform shares (Section 5,
 * step 4): it turns each hinted region into the probe -> body -> fill
 * shape of Fig. 1 (transform.hh draws it), so the hardware pass and the
 * software contenders rewrite the same regions under the same rules.
 *
 * The rewriter plans the regions (every eligibility check, program
 * order, disjointness), copies the program, drops region markers,
 * emits a transform's invalidate code at invalidation points, and
 * retargets branches: an early exit to a region's end runs the fill,
 * so an allocated entry is always written. It also owns the shared
 * emission pieces: fresh registers, output pack/unpack, the task
 * dispatch chain and the Table 2 row. A transform subclasses it and
 * supplies only its probe, its fill and its invalidate.
 */

#ifndef AXMEMO_COMPILER_REGION_REWRITER_HH
#define AXMEMO_COMPILER_REGION_REWRITER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/software_transform.hh"
#include "compiler/transform.hh"
#include "isa/analysis.hh"

namespace axmemo {

/** One hinted region being rewritten. */
struct RegionPlan
{
    /** Position in MemoSpec::regions; indexes a transform's own
     * per-region state. */
    std::size_t index = 0;
    RegionMemoSpec spec;
    InstRange range;
    RangeInterface iface;
    /** Hashed or matched inputs: iface.inputs minus excludeInputs. */
    std::vector<RegId> inputs;
    /** Table 2 row; a transform may refine it while planning. */
    RegionTransformInfo info;
    /** Start of the fill; early exits to the region's end land here. */
    InstIndex fillStart = -1;
};

/** The shared rewrite; see file comment. */
class RegionRewriter
{
  public:
    /**
     * Plan every region of @p spec in @p prog. Fails (axm_fatal) if a
     * region is missing or empty, has stores, escaping branches, no or
     * more than two outputs, or an outside branch into its middle, or
     * if two regions overlap.
     */
    RegionRewriter(const Program &prog, const MemoSpec &spec);

    /** Emit the rewritten program, named prog.name() + @p suffix. */
    Program rewrite(const std::string &suffix);

    /** Table 2 rows in program order. */
    std::vector<RegionTransformInfo> rows() const;

  protected:
    /** Code at program entry, before the first copied instruction. */
    virtual void emitSetup() {}
    /**
     * Code before the region's body: look the inputs up, push every
     * branch taken on a miss onto @p toMiss, and return the register
     * that holds the packed outputs on a hit.
     */
    virtual RegId emitProbe(const RegionPlan &plan,
                            std::vector<InstIndex> &toMiss) = 0;
    /** Code at the top of the miss path, before the body. */
    virtual void emitMiss(const RegionPlan &) {}
    /** Code after the body that stores the @p packed outputs. */
    virtual void emitFill(const RegionPlan &plan, RegId packed) = 0;
    /** Code at an invalidation point naming @p lut. */
    virtual void emitInvalidate(LutId lut) = 0;

    InstIndex emit(const Inst &inst) { return out_.append(inst); }
    /** Index the next emitted instruction gets. */
    InstIndex here() const { return out_.size(); }
    /** Point every branch in @p branches at @p target. */
    void patch(const std::vector<InstIndex> &branches, InstIndex target);
    RegId freshInt() { return iregId(nextInt_++); }
    RegId freshFloat() { return fregId(nextFloat_++); }
    /** A dependent chain of @p insts bookkeeping instructions: a task
     * runtime's dispatch cost per invocation (none when 0). */
    void emitTaskOverhead(unsigned insts);
    /** The plans in MemoSpec order (per-region set-up runs in it). */
    std::vector<RegionPlan *> specOrder();

    static unsigned truncFor(const RegionMemoSpec &spec, RegId reg);
    static unsigned sizeFor(const RegionMemoSpec &spec, RegId reg);

    /**
     * The program being rewritten. A transform may edit instructions
     * in place before rewrite() as long as their operands stay the
     * same (the hardware pass turns fused loads into ld_crc).
     */
    Program source_;
    /** The regions, in program order. */
    std::vector<RegionPlan> plans_;

  private:
    /** Pack 1-2 outputs into one integer register (Section 3.3). */
    RegId pack(const std::vector<RegId> &outs);
    /** Unpack @p data into the output registers. */
    void unpack(const std::vector<RegId> &outs, RegId data);

    const MemoSpec &spec_;
    Program out_;
    unsigned nextInt_;
    unsigned nextFloat_;
};

/**
 * A rewriter whose LUT lives in simulated memory with one generation
 * byte per entry (the software LUT, ATM and iACT). Invalidate points
 * bump a region's generation register instead of sweeping the array,
 * and per-region counter registers count lookups and hits; the counter
 * adds are part of the software overhead, as real instrumentation
 * would be.
 */
class GenerationLutRewriter : public RegionRewriter
{
  public:
    GenerationLutRewriter(const Program &prog, const MemoSpec &spec);

    /** Rewrite and collect the program, rows and counter registers. */
    SwTransformResult run(const std::string &suffix);

  protected:
    /** A region's generation and counter registers, and the entry the
     * fill writes (set by the probe or the miss path). */
    struct Table
    {
        RegId gen = invalidReg;
        RegId lookups = invalidReg;
        RegId hits = invalidReg;
        RegId dataAddr = invalidReg;
        RegId validAddr = invalidReg;
    };
    Table &table(const RegionPlan &plan) { return tables_[plan.index]; }

    /** Allocate and zero the region's counters; generation 1 (memory
     * zeroes mean "invalid"). */
    void setupTable(const RegionPlan &plan);
    /** counter += 1 */
    void count(RegId counter);
    /** Store @p packed at dataAddr + @p offset and mark the entry
     * current. */
    void storeEntry(const RegionPlan &plan, RegId packed,
                    std::int64_t offset);
    void emitInvalidate(LutId lut) override;

  private:
    std::vector<Table> tables_;
};

} // namespace axmemo

#endif // AXMEMO_COMPILER_REGION_REWRITER_HH
