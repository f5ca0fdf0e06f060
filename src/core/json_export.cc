#include "core/json_export.hh"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "obs/json_escape.hh"

namespace axmemo {

namespace {

/** Append `"key": value` pairs with comma management. */
class ObjectBuilder
{
  public:
    explicit ObjectBuilder(std::ostringstream &os) : os_(os)
    {
        os_ << '{';
    }

    void
    field(const char *key, std::uint64_t value)
    {
        sep();
        os_ << '"' << key << "\":" << value;
    }

    void
    field(const char *key, double value)
    {
        sep();
        if (!std::isfinite(value)) {
            os_ << '"' << key << "\":null";
            return;
        }
        os_ << '"' << key << "\":" << std::setprecision(12) << value;
    }

    void
    field(const char *key, bool value)
    {
        sep();
        os_ << '"' << key << "\":" << (value ? "true" : "false");
    }

    void
    field(const char *key, const std::string &value)
    {
        sep();
        os_ << '"' << key << "\":\"" << jsonEscape(value)
            << '"';
    }

    void
    raw(const char *key, const std::string &json)
    {
        sep();
        os_ << '"' << key << "\":" << json;
    }

    std::string
    close()
    {
        os_ << '}';
        return os_.str();
    }

  private:
    void
    sep()
    {
        if (any_)
            os_ << ',';
        any_ = true;
    }

    std::ostringstream &os_;
    bool any_ = false;
};

} // namespace

std::string
JsonWriter::toJson(const RunResult &result)
{
    std::ostringstream os;
    ObjectBuilder obj(os);
    obj.field("mode", result.backend);
    obj.field("cycles", result.stats.cycles);
    obj.field("macro_insts", result.stats.macroInsts);
    obj.field("uops", result.stats.uops);
    obj.field("memo_uops", result.stats.memoUops);
    obj.field("branches", result.stats.branches);
    obj.field("mispredicts", result.stats.mispredicts);
    obj.field("lookups", result.lookups);
    obj.field("hits", result.hits);
    obj.field("hit_rate", result.hitRate());
    obj.field("l1_lut_hits", result.stats.memo.l1Hits);
    obj.field("l2_lut_hits", result.stats.memo.l2Hits);
    obj.field("monitor_tripped", result.stats.memo.monitorTripped);
    obj.field("energy_pj", result.energyPj());
    obj.field("energy_core_pj", result.energy.corePj);
    obj.field("energy_cache_pj", result.energy.cachePj);
    obj.field("energy_dram_pj", result.energy.dramPj);
    obj.field("energy_memo_pj", result.energy.memoPj);
    obj.field("energy_leakage_pj", result.energy.leakagePj);

    std::ostringstream regions;
    regions << '[';
    for (std::size_t i = 0; i < result.regions.size(); ++i) {
        const auto &r = result.regions[i];
        if (i)
            regions << ',';
        std::ostringstream ros;
        ObjectBuilder robj(ros);
        robj.field("region_id",
                   static_cast<std::uint64_t>(r.regionId));
        robj.field("lut", static_cast<std::uint64_t>(r.lut));
        robj.field("inputs", static_cast<std::uint64_t>(r.numInputs));
        robj.field("input_bytes",
                   static_cast<std::uint64_t>(r.inputBytes));
        robj.field("outputs",
                   static_cast<std::uint64_t>(r.numOutputs));
        robj.field("fused_loads",
                   static_cast<std::uint64_t>(r.fusedLoads));
        regions << robj.close();
    }
    regions << ']';
    obj.raw("regions", regions.str());
    return obj.close();
}

std::string
JsonWriter::toJson(const Comparison &cmp, const std::string &workload)
{
    std::ostringstream os;
    ObjectBuilder obj(os);
    obj.field("workload", workload);
    obj.field("speedup", cmp.speedup);
    obj.field("energy_reduction", cmp.energyReduction);
    obj.field("quality_loss", cmp.qualityLoss);
    obj.field("normalized_uops", cmp.normalizedUops);
    obj.field("memo_uop_share", cmp.memoUopShare);
    obj.field("error_p50", cmp.errorCdf.quantile(0.5));
    obj.field("error_p99", cmp.errorCdf.quantile(0.99));
    obj.raw("baseline", toJson(cmp.baseline));
    obj.raw("subject", toJson(cmp.subject));
    return obj.close();
}

} // namespace axmemo
