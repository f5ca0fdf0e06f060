#include "compiler/software_transform.hh"

#include <algorithm>
#include <utility>

#include "common/bits.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "compiler/region_rewriter.hh"
#include "crc/crc.hh"

namespace axmemo {

namespace {

/** The software hash, index/probe and fill; see software_transform.hh. */
class SoftwareRewriter final : public GenerationLutRewriter
{
  public:
    SoftwareRewriter(const Program &prog, const MemoSpec &spec,
                     SimMemory &mem, const SwMemoConfig &config)
        : GenerationLutRewriter(prog, spec), config_(config),
          engine_(CrcSpec::crc32()), regions_(plans_.size())
    {
        // The byte-wise CRC table lives in simulated memory (one table
        // shared by all regions), loaded with the same constants the
        // hardware RAM holds.
        if (config.hash == SwHashKind::TableCrc) {
            tableBase_ = mem.allocate(256 * 4);
            for (unsigned i = 0; i < 256; ++i)
                mem.write32(tableBase_ + 4 * i,
                            static_cast<std::uint32_t>(engine_.table()[i]));
        }
        const std::uint64_t entries = 1ull << config.log2Entries;
        Rng rng(config.seed);
        for (const RegionPlan *plan : specOrder()) {
            Region &region = regions_[plan->index];
            region.dataBase = mem.allocate(entries * 8);
            region.validBase = mem.allocate(entries);
            if (config.hash != SwHashKind::ByteSample)
                continue;
            // ATM: concatenate the inputs into one byte vector, shuffle
            // the index vector, sample the first n bytes.
            std::vector<std::pair<RegId, unsigned>> allBytes;
            for (RegId input : plan->inputs) {
                for (unsigned b = 0; b < sizeFor(plan->spec, input); ++b)
                    allBytes.emplace_back(input, b);
            }
            for (std::size_t k = allBytes.size(); k > 1; --k)
                std::swap(allBytes[k - 1], allBytes[rng.below(k)]);
            const std::size_t n =
                std::min<std::size_t>(config.sampleBytes, allBytes.size());
            region.samples.assign(allBytes.begin(), allBytes.begin() + n);
        }
    }

  protected:
    void
    emitSetup() override
    {
        for (const RegionPlan &plan : plans_)
            setupTable(plan);
    }

    RegId
    emitProbe(const RegionPlan &plan, std::vector<InstIndex> &toMiss) override
    {
        Table &t = table(plan);
        const Region &region = regions_[plan.index];
        emitTaskOverhead(config_.taskOverheadInsts);
        count(t.lookups);
        const RegId hash = config_.hash == SwHashKind::TableCrc
                               ? emitTableCrc(plan)
                               : emitSampleHash(plan, region);

        // ---- index + probe ----
        const RegId idx = freshInt();
        emit({.op = Op::And, .dst = idx, .src1 = hash,
              .imm = static_cast<std::int64_t>(
                  (1ull << config_.log2Entries) - 1)});
        t.validAddr = freshInt();
        const RegId vBase = freshInt();
        emit({.op = Op::Movi, .dst = vBase,
              .imm = static_cast<std::int64_t>(region.validBase)});
        emit({.op = Op::Add, .dst = t.validAddr, .src1 = vBase,
              .src2 = idx});
        const RegId dOff = freshInt();
        emit({.op = Op::Shl, .dst = dOff, .src1 = idx, .imm = 3});
        const RegId dBase = freshInt();
        emit({.op = Op::Movi, .dst = dBase,
              .imm = static_cast<std::int64_t>(region.dataBase)});
        t.dataAddr = freshInt();
        emit({.op = Op::Add, .dst = t.dataAddr, .src1 = dBase,
              .src2 = dOff});

        const RegId valid = freshInt();
        emit({.op = Op::Ld, .dst = valid, .src1 = t.validAddr, .size = 1});
        const RegId isHit = freshInt();
        emit({.op = Op::Seq, .dst = isHit, .src1 = valid, .src2 = t.gen});
        toMiss.push_back(emit({.op = Op::Bf, .src1 = isHit}));

        count(t.hits);
        const RegId data = freshInt();
        emit({.op = Op::Ld, .dst = data, .src1 = t.dataAddr,
              .size = static_cast<std::uint8_t>(plan.info.outputBytes)});
        return data;
    }

    void
    emitFill(const RegionPlan &plan, RegId packed) override
    {
        storeEntry(plan, packed, 0);
    }

  private:
    /** One region's array bases and ATM's (input, byte) samples. */
    struct Region
    {
        Addr dataBase = 0;
        Addr validBase = 0;
        std::vector<std::pair<RegId, unsigned>> samples;
    };

    /** Raw (truncated) bit pattern of @p input in an integer register. */
    RegId
    emitRawBits(const RegionMemoSpec &rs, RegId input)
    {
        RegId raw = input;
        if (isFloatReg(input)) {
            raw = freshInt();
            emit({.op = Op::FBits, .dst = raw, .src1 = input});
        }
        const unsigned trunc = truncFor(rs, input);
        if (trunc > 0) {
            const RegId t = freshInt();
            emit({.op = Op::And, .dst = t, .src1 = raw,
                  .imm = static_cast<std::int64_t>(~maskLow(trunc))});
            raw = t;
        }
        return raw;
    }

    /** Byte @p b of @p raw (unmasked above the byte). */
    RegId
    emitByte(RegId raw, unsigned b)
    {
        if (b == 0)
            return raw;
        const RegId byte = freshInt();
        emit({.op = Op::Shr, .dst = byte, .src1 = raw,
              .imm = 8 * static_cast<std::int64_t>(b)});
        return byte;
    }

    /** Table-driven CRC32 over every input byte. */
    RegId
    emitTableCrc(const RegionPlan &plan)
    {
        const RegId hash = freshInt();
        emit({.op = Op::Movi, .dst = hash,
              .imm = static_cast<std::int64_t>(engine_.initial())});
        const RegId tblReg = freshInt();
        emit({.op = Op::Movi, .dst = tblReg,
              .imm = static_cast<std::int64_t>(tableBase_)});
        for (RegId input : plan.inputs) {
            const RegId raw = emitRawBits(plan.spec, input);
            for (unsigned b = 0; b < sizeFor(plan.spec, input); ++b) {
                // idx = (hash >> 24) ^ byte; table-driven step:
                // hash = (hash << 8) ^ table[idx & 0xff]
                const RegId byteReg = emitByte(raw, b);
                const RegId top = freshInt();
                emit({.op = Op::Shr, .dst = top, .src1 = hash, .imm = 24});
                const RegId mixed = freshInt();
                emit({.op = Op::Xor, .dst = mixed, .src1 = top,
                      .src2 = byteReg});
                const RegId idx8 = freshInt();
                emit({.op = Op::And, .dst = idx8, .src1 = mixed,
                      .imm = 0xff});
                const RegId off = freshInt();
                emit({.op = Op::Shl, .dst = off, .src1 = idx8, .imm = 2});
                const RegId ea = freshInt();
                emit({.op = Op::Add, .dst = ea, .src1 = tblReg,
                      .src2 = off});
                const RegId tv = freshInt();
                emit({.op = Op::Ld, .dst = tv, .src1 = ea, .size = 4});
                const RegId shifted = freshInt();
                emit({.op = Op::Shl, .dst = shifted, .src1 = hash,
                      .imm = 8});
                const RegId masked = freshInt();
                emit({.op = Op::And, .dst = masked, .src1 = shifted,
                      .imm = 0xffffffffll});
                emit({.op = Op::Xor, .dst = hash, .src1 = masked,
                      .src2 = tv});
            }
        }
        return hash;
    }

    /** ATM byte sampling: h = h*31 + sampled byte. */
    RegId
    emitSampleHash(const RegionPlan &plan, const Region &region)
    {
        const RegId hash = freshInt();
        emit({.op = Op::Movi, .dst = hash, .imm = 17});
        for (const auto &[input, byteOff] : region.samples) {
            const RegId byteReg =
                emitByte(emitRawBits(plan.spec, input), byteOff);
            const RegId b = freshInt();
            emit({.op = Op::And, .dst = b, .src1 = byteReg, .imm = 0xff});
            const RegId scaled = freshInt();
            emit({.op = Op::Mul, .dst = scaled, .src1 = hash, .imm = 31});
            emit({.op = Op::Add, .dst = hash, .src1 = scaled, .src2 = b});
        }
        return hash;
    }

    const SwMemoConfig config_;
    const CrcEngine engine_;
    Addr tableBase_ = 0;
    std::vector<Region> regions_;
};

} // namespace

SwTransformResult
SoftwareMemoTransform::apply(const Program &prog, const MemoSpec &spec,
                             SimMemory &mem, const SwMemoConfig &config)
{
    if (config.log2Entries < 8 || config.log2Entries > 28)
        axm_fatal("software LUT log2Entries must be in [8, 28]");
    return SoftwareRewriter(prog, spec, mem, config).run("+swmemo");
}

} // namespace axmemo
