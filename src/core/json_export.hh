/**
 * @file
 * Machine-readable (JSON) export of run results and comparisons, so the
 * bench output can feed plotting scripts without scraping text tables.
 * A minimal escaping serializer — no external dependency.
 */

#ifndef AXMEMO_CORE_JSON_EXPORT_HH
#define AXMEMO_CORE_JSON_EXPORT_HH

#include <string>

#include "core/experiment.hh"

namespace axmemo {

/** Minimal JSON object/array builder. */
class JsonWriter
{
  public:
    /** Serialize one run result as a JSON object. */
    static std::string toJson(const RunResult &result);

    /** Serialize a comparison (baseline + subject + derived metrics). */
    static std::string toJson(const Comparison &cmp,
                              const std::string &workload);
};

} // namespace axmemo

#endif // AXMEMO_CORE_JSON_EXPORT_HH
