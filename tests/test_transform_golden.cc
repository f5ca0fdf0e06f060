/**
 * @file
 * Golden digests of every transformed workload program. Each of the ten
 * workloads (dataset scale 0.01, seed 42) runs through six variants:
 * the transforms of the five memoizing backends (axmemo,
 * axmemo-notrunc, software-lut, atm, iact) and iACT at threshold 0. The
 * rewritten program, its register counts and region map, the Table 2
 * rows, the software counter registers, the LUT data width and the next
 * free simulated address are folded into one FNV-1a-64 digest and
 * compared with a recorded table. A refactor of the transforms must
 * leave every digest unchanged; a deliberate change to the emitted code
 * re-records them.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "compiler/atm_transform.hh"
#include "compiler/iact_transform.hh"
#include "compiler/software_transform.hh"
#include "compiler/transform.hh"
#include "workloads/workload.hh"

namespace axmemo {
namespace {

/** FNV-1a-64 fed one fixed-width little-endian integer at a time. */
class Digest
{
  public:
    void
    add(std::uint64_t value)
    {
        for (unsigned byte = 0; byte < 8; ++byte) {
            hash_ ^= (value >> (8 * byte)) & 0xff;
            hash_ *= 0x100000001b3ull;
        }
    }

    void
    add(const std::string &text)
    {
        add(text.size());
        for (const char c : text)
            add(static_cast<std::uint8_t>(c));
    }

    void
    add(const Program &prog)
    {
        add(prog.name());
        add(static_cast<std::uint64_t>(prog.size()));
        for (const Inst &inst : prog.insts()) {
            add(static_cast<std::uint64_t>(inst.op));
            add(inst.dst);
            add(inst.src1);
            add(inst.src2);
            add(static_cast<std::uint64_t>(inst.imm));
            add(inst.size);
            add(inst.lut);
            add(inst.truncBits);
        }
        add(prog.numIntRegs());
        add(prog.numFloatRegs());
        add(prog.regions().size());
        for (const auto &[id, range] : prog.regions()) {
            add(static_cast<std::uint64_t>(id));
            add(static_cast<std::uint64_t>(range.begin));
            add(static_cast<std::uint64_t>(range.end));
        }
    }

    void
    add(const std::vector<RegionTransformInfo> &rows)
    {
        add(rows.size());
        for (const RegionTransformInfo &row : rows) {
            add(static_cast<std::uint64_t>(row.regionId));
            add(row.lut);
            add(row.numInputs);
            add(row.inputBytes);
            add(row.numOutputs);
            add(row.outputBytes);
            add(row.fusedLoads);
        }
    }

    void
    add(const SwTransformResult &tr)
    {
        add(tr.program);
        add(tr.regions);
        add(tr.counters.size());
        for (const auto &counter : tr.counters) {
            add(static_cast<std::uint64_t>(counter.regionId));
            add(counter.lookups.id);
            add(counter.hits.id);
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Digest of @p workload rewritten by @p variant. */
std::uint64_t
digestOf(const std::string &workload, const std::string &variant)
{
    const auto w = makeWorkload(workload);
    SimMemory mem;
    WorkloadParams params;
    params.scale = 0.01;
    params.seed = 42;
    w->prepare(mem, params);
    const Program prog = w->build();
    const MemoSpec spec = w->memoSpec();

    Digest digest;
    if (variant == "axmemo" || variant == "axmemo-notrunc") {
        const TransformResult tr = MemoTransform::apply(
            prog, variant == "axmemo" ? spec
                                      : spec.withUniformTruncation(0));
        digest.add(tr.program);
        digest.add(tr.regions);
        digest.add(tr.dataBytes);
    } else if (variant == "software-lut") {
        digest.add(SoftwareMemoTransform::apply(prog, spec, mem));
    } else if (variant == "atm") {
        digest.add(AtmTransform::apply(prog, spec, mem));
    } else {
        IactConfig config;
        if (variant == "iact-exact")
            config.threshold = 0.0;
        digest.add(IactTransform::apply(prog, spec, mem, config));
    }
    // Pins the simulated-memory layout the transform allocated.
    digest.add(mem.allocate(8));
    return digest.value();
}

struct GoldenRow
{
    const char *workload;
    const char *variant;
    std::uint64_t digest;
};

/** One recorded digest per workload and variant. */
const GoldenRow kGolden[] = {
    {"blackscholes", "axmemo", 0xc44d953446621667ull},
    {"blackscholes", "axmemo-notrunc", 0xc44d953446621667ull},
    {"blackscholes", "software-lut", 0xcd4396162053e2c8ull},
    {"blackscholes", "atm", 0x9dbcea9f6b7841f3ull},
    {"blackscholes", "iact", 0x2ece5a5343ae2d8aull},
    {"blackscholes", "iact-exact", 0x63d78a61224d524aull},
    {"fft", "axmemo", 0x550a439c9e052737ull},
    {"fft", "axmemo-notrunc", 0x550a439c9e052737ull},
    {"fft", "software-lut", 0xd56de123974df408ull},
    {"fft", "atm", 0x4549b51f8df6f0bfull},
    {"fft", "iact", 0x17e844223d0e1a84ull},
    {"fft", "iact-exact", 0x5b96f284dae00a07ull},
    {"inversek2j", "axmemo", 0xc4df32d4516b55eeull},
    {"inversek2j", "axmemo-notrunc", 0xc94ac4cc1fb6c6eeull},
    {"inversek2j", "software-lut", 0xd29ac1962244eedaull},
    {"inversek2j", "atm", 0xac4ec7906880c530ull},
    {"inversek2j", "iact", 0x60c901c25716bedcull},
    {"inversek2j", "iact-exact", 0xbf55f28b6d355c2aull},
    {"jmeint", "axmemo", 0x58ea9a9b3d19a612ull},
    {"jmeint", "axmemo-notrunc", 0xc2bc375cc773f5b2ull},
    {"jmeint", "software-lut", 0x060ce7875d82635eull},
    {"jmeint", "atm", 0x03e639da54ab54d8ull},
    {"jmeint", "iact", 0x952576c7e688e591ull},
    {"jmeint", "iact-exact", 0x4f6940ae837ae1b3ull},
    {"jpeg", "axmemo", 0x856b0ab1934f5ff9ull},
    {"jpeg", "axmemo-notrunc", 0x42ba7e97f0705d59ull},
    {"jpeg", "software-lut", 0x674333c13c845d11ull},
    {"jpeg", "atm", 0x06d4d75aced72bb7ull},
    {"jpeg", "iact", 0x83dc919a3c4b55ebull},
    {"jpeg", "iact-exact", 0x52c727c0abc074eeull},
    {"kmeans", "axmemo", 0xbd04bbf366a821d8ull},
    {"kmeans", "axmemo-notrunc", 0x89561b02c8ab4408ull},
    {"kmeans", "software-lut", 0x2b60972ed15290b1ull},
    {"kmeans", "atm", 0xa245d92ee3f1d5e9ull},
    {"kmeans", "iact", 0x9baff3872a45b638ull},
    {"kmeans", "iact-exact", 0xe4cdb3a72f279633ull},
    {"sobel", "axmemo", 0x98be0899655445d3ull},
    {"sobel", "axmemo-notrunc", 0x935cf34cde1357a3ull},
    {"sobel", "software-lut", 0xa93732d28671510full},
    {"sobel", "atm", 0x673f1e65e875383bull},
    {"sobel", "iact", 0x437999049b7a7e08ull},
    {"sobel", "iact-exact", 0x34b252638f94d1e1ull},
    {"hotspot", "axmemo", 0x24c88e0d72f8720bull},
    {"hotspot", "axmemo-notrunc", 0x5cd9bf521dff302bull},
    {"hotspot", "software-lut", 0x0283d29c21df830full},
    {"hotspot", "atm", 0x605f9d6507c86a13ull},
    {"hotspot", "iact", 0x6a7d8d6db5f7b04dull},
    {"hotspot", "iact-exact", 0x762de346ba62d289ull},
    {"lavamd", "axmemo", 0x2da99f55c2a4a3a8ull},
    {"lavamd", "axmemo-notrunc", 0x2da99f55c2a4a3a8ull},
    {"lavamd", "software-lut", 0x2d7db92eea0e6907ull},
    {"lavamd", "atm", 0xd2927fff725f59dbull},
    {"lavamd", "iact", 0x0f018d55a802bc3eull},
    {"lavamd", "iact-exact", 0x4d78c6bf13466fc5ull},
    {"srad", "axmemo", 0xa07586cb7b2fe11dull},
    {"srad", "axmemo-notrunc", 0x68d5157915182735ull},
    {"srad", "software-lut", 0xbe33f6675065ee41ull},
    {"srad", "atm", 0xfbe0958a6c77eeefull},
    {"srad", "iact", 0x4100e8d51ca3d388ull},
    {"srad", "iact-exact", 0xf5ef6ddc8423ca7dull},
};

TEST(TransformGolden, EveryTransformedProgramMatchesItsDigest)
{
    ASSERT_EQ(std::size(kGolden), 6 * workloadNames().size());
    for (const GoldenRow &row : kGolden) {
        const std::uint64_t got = digestOf(row.workload, row.variant);
        EXPECT_EQ(got, row.digest)
            << row.workload << " / " << row.variant << ": now 0x"
            << std::hex << got;
    }
}

} // namespace
} // namespace axmemo
