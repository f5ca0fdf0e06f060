/**
 * @file
 * Minimal strict JSON value parser (RFC 8259 subset), with no external
 * dependency. It reads bytes this process did not write — journal
 * segments on --resume and merge (core/run_journal), metrics JSONL,
 * claim bodies, shard manifests and timeline segments
 * (core/fleet_status) — so malformed input of any shape, nesting
 * deeper than a fixed cap included, is a Parse error.
 *
 * Numbers keep their raw token so integer consumers can convert
 * losslessly (strtod would clip a 64-bit seed) and doubles round-trip
 * the %.17g form bit-exactly.
 */

#ifndef AXMEMO_CORE_JSON_VALUE_HH
#define AXMEMO_CORE_JSON_VALUE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/expected.hh"

namespace axmemo {

/** Parsed JSON value; see file comment. */
struct JValue
{
    enum class Kind { Null, Bool, Number, String, Object, Array };
    Kind kind = Kind::Null;
    bool boolean = false;
    std::string token; ///< raw number text, or decoded string
    std::vector<std::pair<std::string, JValue>> members;
    std::vector<JValue> elements;

    /** Object member by key; null when absent or not an object. */
    const JValue *find(const std::string &key) const;
};

/** Parse @p text as one JSON value; errors carry ErrorCode::Parse. */
Expected<JValue> parseJsonValue(const std::string &text);

// Typed extraction helpers; errors carry ErrorCode::Parse and name the
// offending @p key in the message.
Expected<double> jsonNumber(const JValue &v, const std::string &key);
Expected<std::uint64_t> jsonU64(const JValue &v, const std::string &key);
Expected<bool> jsonBool(const JValue &v, const std::string &key);
Expected<std::string> jsonString(const JValue &v,
                                 const std::string &key);

} // namespace axmemo

#endif // AXMEMO_CORE_JSON_VALUE_HH
