#include "compiler/iact_transform.hh"

#include <cmath>
#include <vector>

#include "common/bits.hh"
#include "common/expected.hh"
#include "common/log.hh"
#include "compiler/region_rewriter.hh"

namespace axmemo {

namespace {

/** The pool select, similarity scan and FIFO victim capture; see
 * iact_transform.hh. */
class IactRewriter final : public GenerationLutRewriter
{
  public:
    IactRewriter(const Program &prog, const MemoSpec &spec,
                 SimMemory &mem, const IactConfig &config)
        : GenerationLutRewriter(prog, spec), config_(config),
          entries_(1u << config.log2Entries),
          exact_(config.threshold == 0.0), regions_(plans_.size())
    {
        for (RegionPlan *plan : specOrder()) {
            if (plan->inputs.empty())
                axm_fatal(prog.name(), ": region ", plan->spec.regionId,
                          " has no inputs to match on");
            // The row counts the bytes compared: a float's 4, an
            // integer's whole 8-byte slot. A pool entry holds one slot
            // per input plus the packed outputs.
            plan->info.inputBytes = 0;
            for (RegId input : plan->inputs)
                plan->info.inputBytes += isFloatReg(input) ? 4 : 8;
            Region &region = regions_[plan->index];
            region.entrySize =
                8 * (static_cast<unsigned>(plan->inputs.size()) + 1);
            region.dataBase = mem.allocate(
                static_cast<std::uint64_t>(config.pools) * entries_ *
                region.entrySize);
            region.validBase = mem.allocate(
                static_cast<std::uint64_t>(config.pools) * entries_);
            region.rotorBase = mem.allocate(config.pools);
        }
    }

  protected:
    void
    emitSetup() override
    {
        // The relative-error tolerance, one float register shared by
        // every region (unused when threshold == 0: compares are exact).
        if (!plans_.empty() && !exact_) {
            thrReg_ = freshFloat();
            emit({.op = Op::Fmovi, .dst = thrReg_,
                  .imm = static_cast<std::int64_t>(floatBits(
                      static_cast<float>(config_.threshold)))});
        }
        // Plus one round-robin invocation counter per region that
        // stripes calls across the per-thread pools.
        for (const RegionPlan &plan : plans_) {
            setupTable(plan);
            if (config_.pools > 1) {
                const RegId invokes = freshInt();
                regions_[plan.index].invokeCounter = invokes;
                emit({.op = Op::Movi, .dst = invokes, .imm = 0});
            }
        }
    }

    RegId
    emitProbe(const RegionPlan &plan, std::vector<InstIndex> &toMiss) override
    {
        Table &t = table(plan);
        Region &region = regions_[plan.index];
        emitTaskOverhead(config_.taskOverheadInsts);
        count(t.lookups);

        // ---- pool select: stripe invocations round-robin across the
        // per-thread pools ----
        region.vPool = freshInt();
        emit({.op = Op::Movi, .dst = region.vPool,
              .imm = static_cast<std::int64_t>(region.validBase)});
        region.ePool = freshInt();
        emit({.op = Op::Movi, .dst = region.ePool,
              .imm = static_cast<std::int64_t>(region.dataBase)});
        region.rotorAddr = freshInt();
        emit({.op = Op::Movi, .dst = region.rotorAddr,
              .imm = static_cast<std::int64_t>(region.rotorBase)});
        if (config_.pools > 1) {
            const RegId pool = freshInt();
            emit({.op = Op::And, .dst = pool, .src1 = region.invokeCounter,
                  .imm = static_cast<std::int64_t>(config_.pools - 1)});
            count(region.invokeCounter);
            const RegId vOff = freshInt();
            emit({.op = Op::Shl, .dst = vOff, .src1 = pool,
                  .imm = static_cast<std::int64_t>(config_.log2Entries)});
            emit({.op = Op::Add, .dst = region.vPool, .src1 = region.vPool,
                  .src2 = vOff});
            const RegId eOff = freshInt();
            emit({.op = Op::Mul, .dst = eOff, .src1 = pool,
                  .imm = static_cast<std::int64_t>(entries_) *
                         region.entrySize});
            emit({.op = Op::Add, .dst = region.ePool, .src1 = region.ePool,
                  .src2 = eOff});
            emit({.op = Op::Add, .dst = region.rotorAddr,
                  .src1 = region.rotorAddr, .src2 = pool});
        }

        // ---- linear scan over the pool's entries ----
        const RegId slotIdx = freshInt();
        emit({.op = Op::Movi, .dst = slotIdx, .imm = 0});
        const RegId vAddr = freshInt();
        emit({.op = Op::Mov, .dst = vAddr, .src1 = region.vPool});
        const RegId eAddr = freshInt();
        emit({.op = Op::Mov, .dst = eAddr, .src1 = region.ePool});

        const InstIndex loopHead = here();
        const RegId atEnd = freshInt();
        emit({.op = Op::Seq, .dst = atEnd, .src1 = slotIdx,
              .imm = static_cast<std::int64_t>(entries_)});
        toMiss.push_back(emit({.op = Op::Bt, .src1 = atEnd}));

        std::vector<InstIndex> toNext;
        const RegId valid = freshInt();
        emit({.op = Op::Ld, .dst = valid, .src1 = vAddr, .size = 1});
        const RegId live = freshInt();
        emit({.op = Op::Seq, .dst = live, .src1 = valid, .src2 = t.gen});
        toNext.push_back(emit({.op = Op::Bf, .src1 = live}));

        for (std::size_t j = 0; j < plan.inputs.size(); ++j) {
            const RegId input = plan.inputs[j];
            const std::int64_t off = 8 * static_cast<std::int64_t>(j);
            if (isFloatReg(input)) {
                const RegId stored = freshFloat();
                emit({.op = Op::Ldf, .dst = stored, .src1 = eAddr,
                      .imm = off, .size = 4});
                emitFloatMatch(input, stored, toNext);
            } else if (exact_) {
                const RegId stored = freshInt();
                emit({.op = Op::Ld, .dst = stored, .src1 = eAddr,
                      .imm = off, .size = 8});
                const RegId ok = freshInt();
                emit({.op = Op::Seq, .dst = ok, .src1 = input,
                      .src2 = stored});
                toNext.push_back(emit({.op = Op::Bf, .src1 = ok}));
            } else {
                const RegId stored = freshInt();
                emit({.op = Op::Ld, .dst = stored, .src1 = eAddr,
                      .imm = off, .size = 8});
                const RegId fin = freshFloat();
                emit({.op = Op::CvtIF, .dst = fin, .src1 = input});
                const RegId fst = freshFloat();
                emit({.op = Op::CvtIF, .dst = fst, .src1 = stored});
                emitFloatMatch(fin, fst, toNext);
            }
        }
        const InstIndex toHit = emit({.op = Op::Br});

        // NEXT: advance to the following slot.
        patch(toNext, here());
        emit({.op = Op::Add, .dst = slotIdx, .src1 = slotIdx, .imm = 1});
        emit({.op = Op::Add, .dst = vAddr, .src1 = vAddr, .imm = 1});
        emit({.op = Op::Add, .dst = eAddr, .src1 = eAddr,
              .imm = static_cast<std::int64_t>(region.entrySize)});
        emit({.op = Op::Br, .imm = loopHead});

        // HIT: reuse the matched entry's stored outputs.
        patch({toHit}, here());
        count(t.hits);
        const RegId data = freshInt();
        emit({.op = Op::Ld, .dst = data, .src1 = eAddr,
              .imm = outputOffset(plan),
              .size = static_cast<std::uint8_t>(plan.info.outputBytes)});
        return data;
    }

    void
    emitMiss(const RegionPlan &plan) override
    {
        // Evict FIFO via the pool rotor, remember the victim slot for
        // the fill, and capture the inputs now (the region body may
        // overwrite the input registers).
        Table &t = table(plan);
        const Region &region = regions_[plan.index];
        const RegId slot = freshInt();
        emit({.op = Op::Ld, .dst = slot, .src1 = region.rotorAddr,
              .size = 1});
        const RegId bumped = freshInt();
        emit({.op = Op::Add, .dst = bumped, .src1 = slot, .imm = 1});
        const RegId wrapped = freshInt();
        emit({.op = Op::And, .dst = wrapped, .src1 = bumped,
              .imm = static_cast<std::int64_t>(entries_ - 1)});
        emit({.op = Op::St, .src1 = region.rotorAddr, .src2 = wrapped,
              .size = 1});
        t.validAddr = freshInt();
        emit({.op = Op::Add, .dst = t.validAddr, .src1 = region.vPool,
              .src2 = slot});
        const RegId victimOff = freshInt();
        emit({.op = Op::Mul, .dst = victimOff, .src1 = slot,
              .imm = static_cast<std::int64_t>(region.entrySize)});
        t.dataAddr = freshInt();
        emit({.op = Op::Add, .dst = t.dataAddr, .src1 = region.ePool,
              .src2 = victimOff});
        for (std::size_t j = 0; j < plan.inputs.size(); ++j) {
            const RegId input = plan.inputs[j];
            const bool isFloat = isFloatReg(input);
            emit({.op = isFloat ? Op::Stf : Op::St, .src1 = t.dataAddr,
                  .src2 = input, .imm = 8 * static_cast<std::int64_t>(j),
                  .size = static_cast<std::uint8_t>(isFloat ? 4 : 8)});
        }
    }

    void
    emitFill(const RegionPlan &plan, RegId packed) override
    {
        storeEntry(plan, packed, outputOffset(plan));
    }

  private:
    /** One region's pool layout, and the pool registers the probe
     * leaves for the miss path. Simulated memory holds pools * entries
     * tuple slots, pools * entries generation bytes, and one FIFO rotor
     * byte per pool. */
    struct Region
    {
        unsigned entrySize = 0;
        Addr dataBase = 0;
        Addr validBase = 0;
        Addr rotorBase = 0;
        RegId invokeCounter = invalidReg;
        RegId vPool = invalidReg;
        RegId ePool = invalidReg;
        RegId rotorAddr = invalidReg;
    };

    /** The packed outputs follow the input slots in an entry. */
    static std::int64_t
    outputOffset(const RegionPlan &plan)
    {
        return 8 * static_cast<std::int64_t>(plan.inputs.size());
    }

    /** Emit |in - stored| <= threshold * |stored| (or exact equality)
     * for one float pair; branch to NEXT on mismatch. */
    void
    emitFloatMatch(RegId input, RegId stored,
                   std::vector<InstIndex> &toNext)
    {
        const RegId ok = freshInt();
        if (exact_) {
            emit({.op = Op::Feq, .dst = ok, .src1 = input, .src2 = stored});
        } else {
            const RegId diff = freshFloat();
            emit({.op = Op::Fsub, .dst = diff, .src1 = input,
                  .src2 = stored});
            const RegId adiff = freshFloat();
            emit({.op = Op::Fabs, .dst = adiff, .src1 = diff});
            const RegId astored = freshFloat();
            emit({.op = Op::Fabs, .dst = astored, .src1 = stored});
            const RegId tol = freshFloat();
            emit({.op = Op::Fmul, .dst = tol, .src1 = astored,
                  .src2 = thrReg_});
            emit({.op = Op::Fle, .dst = ok, .src1 = adiff, .src2 = tol});
        }
        toNext.push_back(emit({.op = Op::Bf, .src1 = ok}));
    }

    const IactConfig config_;
    const unsigned entries_;
    const bool exact_;
    RegId thrReg_ = invalidReg;
    std::vector<Region> regions_;
};

} // namespace

SwTransformResult
IactTransform::apply(const Program &prog, const MemoSpec &spec,
                     SimMemory &mem, const IactConfig &config)
{
    // Tables are scanned linearly, so keep them iACT-sized; a mistyped
    // software-LUT log2Entries (say 22) would otherwise emit a
    // 4M-iteration scan per invocation.
    if (config.log2Entries < 1 || config.log2Entries > 8)
        raiseError(ErrorCode::Config, "iact",
                   "iact log2Entries must be in [1, 8] (linear scan)");
    if (config.pools < 1 || config.pools > 256 ||
        (config.pools & (config.pools - 1)) != 0)
        raiseError(ErrorCode::Config, "iact",
                   "iact pools must be a power of two in [1, 256]");
    if (!(config.threshold >= 0.0) || !std::isfinite(config.threshold))
        raiseError(ErrorCode::Config, "iact",
                   "iact threshold must be finite and >= 0");
    return IactRewriter(prog, spec, mem, config).run("+iact");
}

} // namespace axmemo
