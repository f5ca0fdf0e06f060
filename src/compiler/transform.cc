#include "compiler/transform.hh"

#include <algorithm>

#include "compiler/region_rewriter.hh"

namespace axmemo {

namespace {

/** The memo-unit probe and fill of Fig. 1; see transform.hh. */
class HardwareRewriter final : public RegionRewriter
{
  public:
    HardwareRewriter(const Program &prog, const MemoSpec &spec)
        : RegionRewriter(prog, spec), regCrcInputs_(plans_.size())
    {
        // ld_crc fusion: for each input, look for the defining load in
        // the straight-line window just before the region. Eligible when
        // nothing redefines the register afterwards, no control flow
        // intervenes, and no branch lands between the load and the
        // region entry. A load streams to one LUT at most: once fused it
        // is an ld_crc, which no later region fuses again.
        std::vector<char> isBranchTarget(
            static_cast<std::size_t>(source_.size()) + 1, 0);
        for (const Inst &inst : source_.insts()) {
            if (inst.isBranch())
                isBranchTarget[static_cast<std::size_t>(inst.imm)] = 1;
        }
        for (RegionPlan *plan : specOrder()) {
            for (RegId input : plan->inputs) {
                Inst *fuse = nullptr;
                for (InstIndex j = plan->range.begin - 1; j >= 0; --j) {
                    Inst &cand = source_.at(j);
                    if (cand.isBranch() || cand.op == Op::Halt)
                        break; // control flow: stop searching
                    if (isBranchTarget[static_cast<std::size_t>(j + 1)])
                        break; // something jumps between j and the region
                    if (operandsOf(cand).dest == input) {
                        if (cand.op == Op::Ld || cand.op == Op::Ldf)
                            fuse = &cand;
                        break; // defined here (load or not), stop
                    }
                    // Window bound: the load block before a region is
                    // small.
                    if (plan->range.begin - j > 64)
                        break;
                }
                if (fuse) {
                    // Same destination, same access.
                    fuse->op = Op::LdCrc;
                    fuse->lut = plan->spec.lut;
                    fuse->truncBits = static_cast<std::uint8_t>(
                        truncFor(plan->spec, input));
                    ++plan->info.fusedLoads;
                } else {
                    regCrcInputs_[plan->index].push_back(input);
                }
            }
        }
    }

  protected:
    RegId
    emitProbe(const RegionPlan &plan, std::vector<InstIndex> &toMiss) override
    {
        for (RegId input : regCrcInputs_[plan.index]) {
            emit({.op = Op::RegCrc, .src1 = input,
                  .size = static_cast<std::uint8_t>(
                      sizeFor(plan.spec, input)),
                  .lut = plan.spec.lut,
                  .truncBits = static_cast<std::uint8_t>(
                      truncFor(plan.spec, input))});
        }
        const RegId found = freshInt();
        emit({.op = Op::Lookup, .dst = found, .lut = plan.spec.lut});
        toMiss.push_back(emit({.op = Op::BrMiss}));
        return found;
    }

    void
    emitFill(const RegionPlan &plan, RegId packed) override
    {
        emit({.op = Op::Update, .src1 = packed,
              .size = static_cast<std::uint8_t>(plan.info.outputBytes),
              .lut = plan.spec.lut});
    }

    void
    emitInvalidate(LutId lut) override
    {
        emit({.op = Op::Invalidate, .lut = lut});
    }

  private:
    /** Inputs still needing an explicit reg_crc, per region. */
    std::vector<std::vector<RegId>> regCrcInputs_;
};

} // namespace

TransformResult
MemoTransform::apply(const Program &prog, const MemoSpec &spec)
{
    HardwareRewriter rewriter(prog, spec);
    TransformResult result;
    result.program = rewriter.rewrite("+axmemo");
    result.regions = rewriter.rows();
    for (const RegionTransformInfo &row : result.regions)
        result.dataBytes = std::max(result.dataBytes, row.outputBytes);
    return result;
}

} // namespace axmemo
