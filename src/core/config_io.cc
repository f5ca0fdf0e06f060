#include "core/config_io.hh"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "obs/json_escape.hh"

namespace axmemo {

namespace {

// ---------------------------------------------------------------- writer

/** Appends `"key":value` pairs in declaration order, compactly. */
class Obj
{
  public:
    Obj() { out_ << '{'; }

    void
    field(const char *key, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        raw(key, buf);
    }
    void
    field(const char *key, std::uint64_t v)
    {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
        raw(key, buf);
    }
    void
    field(const char *key, std::uint32_t v)
    {
        field(key, static_cast<std::uint64_t>(v));
    }
    void
    field(const char *key, int v)
    {
        raw(key, std::to_string(v));
    }
    void
    field(const char *key, bool v)
    {
        raw(key, v ? "true" : "false");
    }
    void
    field(const char *key, const std::string &v)
    {
        raw(key, '"' + jsonEscape(v) + '"');
    }
    void
    raw(const char *key, const std::string &json)
    {
        if (any_)
            out_ << ',';
        any_ = true;
        out_ << '"' << key << "\":" << json;
    }

    std::string
    close()
    {
        out_ << '}';
        return out_.str();
    }

  private:
    std::ostringstream out_;
    bool any_ = false;
};

const char *
l2PolicyName(L2LutPolicy policy)
{
    return policy == L2LutPolicy::Victim ? "victim" : "inclusive";
}

const char *
swHashName(SwHashKind kind)
{
    return kind == SwHashKind::ByteSample ? "byte_sample" : "table_crc";
}

} // namespace

std::string
toJson(const WorkloadParams &p)
{
    Obj o;
    o.field("scale", p.scale);
    o.field("seed", p.seed);
    o.field("sample_set", p.sampleSet);
    return o.close();
}

std::string
toJson(const LutSetup &l)
{
    Obj o;
    o.field("l1_bytes", l.l1Bytes);
    o.field("l2_bytes", l.l2Bytes);
    return o.close();
}

std::string
toJson(const CacheConfig &c)
{
    Obj o;
    o.field("name", c.name);
    o.field("size_bytes", c.sizeBytes);
    o.field("assoc", c.assoc);
    o.field("line_size", c.lineSize);
    o.field("hit_latency", c.hitLatency);
    return o.close();
}

std::string
toJson(const DramConfig &d)
{
    Obj o;
    o.field("channels", d.channels);
    o.field("banks_per_channel", d.banksPerChannel);
    o.field("row_bytes", d.rowBytes);
    o.field("row_hit_latency", d.rowHitLatency);
    o.field("row_miss_latency", d.rowMissLatency);
    return o.close();
}

std::string
toJson(const HierarchyConfig &h)
{
    Obj o;
    o.raw("l1d", toJson(h.l1d));
    o.raw("l2", toJson(h.l2));
    o.raw("dram", toJson(h.dram));
    return o.close();
}

std::string
toJson(const AdaptiveTruncationConfig &a)
{
    Obj o;
    o.field("enabled", a.enabled);
    o.field("profile_period", a.profilePeriod);
    o.field("profile_length", a.profileLength);
    o.field("target_error", a.targetError);
    o.field("raise_band", a.raiseBand);
    o.field("hit_target", a.hitTarget);
    o.field("max_extra_bits", a.maxExtraBits);
    o.field("absolute_floor", a.absoluteFloor);
    return o.close();
}

std::string
toJson(const SwMemoConfig &s)
{
    Obj o;
    o.field("hash", std::string(swHashName(s.hash)));
    o.field("log2_entries", s.log2Entries);
    o.field("sample_bytes", s.sampleBytes);
    o.field("task_overhead_insts", s.taskOverheadInsts);
    o.field("seed", s.seed);
    return o.close();
}

std::string
toJson(const AtmConfig &a)
{
    Obj o;
    o.field("sample_bytes", a.sampleBytes);
    o.field("task_overhead_insts", a.taskOverheadInsts);
    o.field("log2_entries", a.log2Entries);
    o.field("seed", a.seed);
    return o.close();
}

std::string
toJson(const IactConfig &i)
{
    Obj o;
    o.field("threshold", i.threshold);
    o.field("log2_entries", i.log2Entries);
    o.field("pools", i.pools);
    o.field("task_overhead_insts", i.taskOverheadInsts);
    return o.close();
}

std::string
toJson(const EnergyParams &e)
{
    Obj o;
    o.field("frontend_per_uop", e.frontendPerUop);
    o.field("int_alu", e.intAlu);
    o.field("int_mul", e.intMul);
    o.field("int_div", e.intDiv);
    o.field("fp_simple", e.fpSimple);
    o.field("fp_mul", e.fpMul);
    o.field("fp_div", e.fpDiv);
    o.field("fp_long_per_uop", e.fpLongPerUop);
    o.field("mem_agen", e.memAgen);
    o.field("branch", e.branch);
    o.field("memo_issue", e.memoIssue);
    o.field("l1d_access", e.l1dAccess);
    o.field("l2_access", e.l2Access);
    o.field("dram_access", e.dramAccess);
    o.field("crc_per_4_bytes", e.crcPer4Bytes);
    o.field("hvr_access", e.hvrAccess);
    o.field("leakage_per_cycle", e.leakagePerCycle);
    o.field("memo_leakage_per_cycle", e.memoLeakagePerCycle);
    return o.close();
}

std::string
toJson(const CpuConfig &c)
{
    Obj o;
    o.field("issue_width", c.issueWidth);
    o.field("mispredict_penalty", c.mispredictPenalty);
    o.field("freq_ghz", c.freqGhz);
    o.field("num_int_alus", c.numIntAlus);
    o.field("predictor_entries", c.predictorEntries);
    o.field("out_of_order", c.outOfOrder);
    o.field("rob_size", c.robSize);
    return o.close();
}

std::string
toJson(const ExperimentConfig &config)
{
    Obj o;
    o.raw("dataset", toJson(config.dataset));
    o.raw("lut", toJson(config.lut));
    o.field("crc_bits", config.crcBits);
    o.raw("hierarchy", toJson(config.hierarchy));
    o.field("quality_monitor", config.qualityMonitor);
    o.field("trunc_override", config.truncOverride);
    o.raw("adaptive", toJson(config.adaptive));
    o.field("l2_policy", std::string(l2PolicyName(config.l2Policy)));
    o.raw("software", toJson(config.software));
    o.raw("atm", toJson(config.atm));
    o.raw("iact", toJson(config.iact));
    o.raw("energy", toJson(config.energy));
    o.raw("cpu", toJson(config.cpu));
    return o.close();
}

} // namespace axmemo
