#include "compiler/region_rewriter.hh"

#include <algorithm>

#include "common/log.hh"

namespace axmemo {

RegionRewriter::RegionRewriter(const Program &prog, const MemoSpec &spec)
    : source_(prog), spec_(spec), nextInt_(prog.numIntRegs()),
      nextFloat_(prog.numFloatRegs())
{
    const Liveness liveness(prog);
    for (const RegionMemoSpec &rs : spec.regions) {
        const auto it = prog.regions().find(rs.regionId);
        if (it == prog.regions().end())
            axm_fatal(prog.name(), ": no hinted region ", rs.regionId);
        RegionPlan plan;
        plan.index = plans_.size();
        plan.spec = rs;
        plan.range = it->second;
        if (plan.range.length() == 0)
            axm_fatal(prog.name(), ": region ", rs.regionId, " is empty");
        plan.iface = analyzeRange(prog, liveness, plan.range);

        if (plan.iface.hasStores)
            axm_fatal(prog.name(), ": region ", rs.regionId,
                      " has stores; ineligible for memoization");
        if (plan.iface.escapes)
            axm_fatal(prog.name(), ": region ", rs.regionId,
                      " has branches escaping the region");
        if (plan.iface.outputs.empty() || plan.iface.outputs.size() > 2)
            axm_fatal(prog.name(), ": region ", rs.regionId, " has ",
                      plan.iface.outputs.size(),
                      " live outputs; a LUT entry packs 1-2");
        // No outside branch may enter the region's middle (it would
        // skip the probe, and the fill would write a stale entry).
        for (InstIndex i = 0; i < prog.size(); ++i) {
            const Inst &inst = prog.at(i);
            if (inst.isBranch() && !plan.range.contains(i) &&
                inst.imm > plan.range.begin && inst.imm < plan.range.end)
                axm_fatal(prog.name(), ": branch at ", i,
                          " enters region ", rs.regionId, " mid-body");
        }

        for (RegId input : plan.iface.inputs) {
            if (!rs.excludeInputs.count(input))
                plan.inputs.push_back(input);
        }
        plan.info.regionId = rs.regionId;
        plan.info.lut = rs.lut;
        plan.info.numInputs = static_cast<unsigned>(plan.inputs.size());
        for (RegId input : plan.inputs)
            plan.info.inputBytes += sizeFor(rs, input);
        plan.info.numOutputs =
            static_cast<unsigned>(plan.iface.outputs.size());
        plan.info.outputBytes = 4 * plan.info.numOutputs;
        plans_.push_back(std::move(plan));
    }

    std::sort(plans_.begin(), plans_.end(),
              [](const RegionPlan &a, const RegionPlan &b) {
                  return a.range.begin < b.range.begin;
              });
    for (std::size_t i = 1; i < plans_.size(); ++i) {
        if (plans_[i].range.begin < plans_[i - 1].range.end)
            axm_fatal(prog.name(), ": memoized regions overlap");
    }
}

Program
RegionRewriter::rewrite(const std::string &suffix)
{
    out_ = Program(source_.name() + suffix);
    emitSetup();

    struct BranchFixup
    {
        InstIndex at;
        InstIndex oldTarget;
        const RegionPlan *region; // null outside every region
    };
    std::vector<BranchFixup> fixups;
    std::vector<InstIndex> newIndex(
        static_cast<std::size_t>(source_.size()) + 1);
    auto nextPlan = plans_.begin();
    RegionPlan *active = nullptr;
    InstIndex hitBr = -1; // br CONT, patched after the fill

    for (InstIndex i = 0; i <= source_.size(); ++i) {
        if (active && i == active->range.end) {
            active->fillStart = here();
            emitFill(*active, pack(active->iface.outputs));
            out_.at(hitBr).imm = here();
            active = nullptr;
        }
        newIndex[static_cast<std::size_t>(i)] = here();
        if (i == source_.size())
            break;

        if (nextPlan != plans_.end() && i == nextPlan->range.begin) {
            active = &*nextPlan++;
            std::vector<InstIndex> toMiss;
            unpack(active->iface.outputs, emitProbe(*active, toMiss));
            hitBr = emit({.op = Op::Br});
            patch(toMiss, here());
            emitMiss(*active);
        }

        // Markers drop out; a marked region listed in invalidateAt is an
        // invalidation point.
        const Inst &inst = source_.at(i);
        if (inst.op == Op::RegionBegin || inst.op == Op::RegionEnd) {
            const auto it =
                spec_.invalidateAt.find(static_cast<int>(inst.imm));
            if (inst.op == Op::RegionBegin &&
                it != spec_.invalidateAt.end()) {
                for (LutId lut : it->second)
                    emitInvalidate(lut);
            }
            continue;
        }
        const InstIndex at = emit(inst);
        if (inst.isBranch())
            fixups.push_back({at, inst.imm, active});
    }

    for (const BranchFixup &fix : fixups) {
        out_.at(fix.at).imm =
            fix.region && fix.oldTarget == fix.region->range.end
                ? fix.region->fillStart
                : newIndex[static_cast<std::size_t>(fix.oldTarget)];
    }
    out_.verify();
    return std::move(out_);
}

std::vector<RegionTransformInfo>
RegionRewriter::rows() const
{
    std::vector<RegionTransformInfo> rows;
    for (const RegionPlan &plan : plans_)
        rows.push_back(plan.info);
    return rows;
}

void
RegionRewriter::patch(const std::vector<InstIndex> &branches,
                      InstIndex target)
{
    for (const InstIndex br : branches)
        out_.at(br).imm = target;
}

void
RegionRewriter::emitTaskOverhead(unsigned insts)
{
    if (insts == 0)
        return;
    const RegId scratch = freshInt();
    emit({.op = Op::Movi, .dst = scratch, .imm = 0});
    for (unsigned k = 1; k < insts; ++k)
        emit({.op = Op::Add, .dst = scratch, .src1 = scratch, .imm = 1});
}

std::vector<RegionPlan *>
RegionRewriter::specOrder()
{
    std::vector<RegionPlan *> order(plans_.size());
    for (RegionPlan &plan : plans_)
        order[plan.index] = &plan;
    return order;
}

unsigned
RegionRewriter::truncFor(const RegionMemoSpec &spec, RegId reg)
{
    const auto it = spec.truncOverride.find(reg);
    return it != spec.truncOverride.end() ? it->second : spec.truncBits;
}

unsigned
RegionRewriter::sizeFor(const RegionMemoSpec &spec, RegId reg)
{
    if (isFloatReg(reg))
        return 4;
    const auto it = spec.sizeOverride.find(reg);
    return it != spec.sizeOverride.end() ? it->second
                                         : spec.intInputBytes;
}

RegId
RegionRewriter::pack(const std::vector<RegId> &outs)
{
    const auto low32 = [this](RegId reg) {
        const RegId t = freshInt();
        if (isFloatReg(reg))
            emit({.op = Op::FBits, .dst = t, .src1 = reg});
        else
            emit({.op = Op::And, .dst = t, .src1 = reg,
                  .imm = 0xffffffffll});
        return t;
    };
    if (outs.size() == 1)
        return isFloatReg(outs[0]) ? low32(outs[0]) : outs[0];
    const RegId lo = low32(outs[0]);
    const RegId hi = low32(outs[1]);
    const RegId hiShifted = freshInt();
    emit({.op = Op::Shl, .dst = hiShifted, .src1 = hi, .imm = 32});
    const RegId packed = freshInt();
    emit({.op = Op::Or, .dst = packed, .src1 = lo, .src2 = hiShifted});
    return packed;
}

void
RegionRewriter::unpack(const std::vector<RegId> &outs, RegId data)
{
    const auto assign = [this](RegId dst, RegId src) {
        emit({.op = isFloatReg(dst) ? Op::BitsF : Op::Mov, .dst = dst,
              .src1 = src});
    };
    if (outs.size() == 1) {
        assign(outs[0], data);
        return;
    }
    if (isFloatReg(outs[0]))
        assign(outs[0], data);
    else
        emit({.op = Op::And, .dst = outs[0], .src1 = data,
              .imm = 0xffffffffll});
    const RegId hi = freshInt();
    emit({.op = Op::Shr, .dst = hi, .src1 = data, .imm = 32});
    assign(outs[1], hi);
}

GenerationLutRewriter::GenerationLutRewriter(const Program &prog,
                                             const MemoSpec &spec)
    : RegionRewriter(prog, spec), tables_(plans_.size())
{
}

SwTransformResult
GenerationLutRewriter::run(const std::string &suffix)
{
    SwTransformResult result;
    result.program = rewrite(suffix);
    result.regions = rows();
    for (const RegionPlan &plan : plans_) {
        const Table &t = table(plan);
        result.counters.push_back(
            {plan.spec.regionId, IReg{t.lookups}, IReg{t.hits}});
    }
    return result;
}

void
GenerationLutRewriter::setupTable(const RegionPlan &plan)
{
    Table &t = table(plan);
    t.gen = freshInt();
    t.lookups = freshInt();
    t.hits = freshInt();
    emit({.op = Op::Movi, .dst = t.gen, .imm = 1});
    emit({.op = Op::Movi, .dst = t.lookups, .imm = 0});
    emit({.op = Op::Movi, .dst = t.hits, .imm = 0});
}

void
GenerationLutRewriter::count(RegId counter)
{
    emit({.op = Op::Add, .dst = counter, .src1 = counter, .imm = 1});
}

void
GenerationLutRewriter::storeEntry(const RegionPlan &plan, RegId packed,
                                  std::int64_t offset)
{
    const Table &t = table(plan);
    emit({.op = Op::St, .src1 = t.dataAddr, .src2 = packed, .imm = offset,
          .size = static_cast<std::uint8_t>(plan.info.outputBytes)});
    emit({.op = Op::St, .src1 = t.validAddr, .src2 = t.gen, .size = 1});
}

void
GenerationLutRewriter::emitInvalidate(LutId lut)
{
    // gen = (gen + 1) & 0xff, matching the one byte stored per entry.
    // (A wrap to 0 could resurrect never-written entries; programs
    // invalidate far fewer than 255 times.)
    for (const RegionPlan &plan : plans_) {
        if (plan.spec.lut != lut)
            continue;
        const RegId gen = table(plan).gen;
        emit({.op = Op::Add, .dst = gen, .src1 = gen, .imm = 1});
        emit({.op = Op::And, .dst = gen, .src1 = gen, .imm = 0xff});
    }
}

} // namespace axmemo
