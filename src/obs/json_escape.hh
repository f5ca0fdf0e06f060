/**
 * @file
 * The one JSON string escaper. Every JSON writer in the tree (reports,
 * manifests, journal records, timelines, the serve stats, the --isolate
 * error frames) escapes its strings here. It lives in obs, the lowest
 * library, so common, core and serve all reach it.
 */

#ifndef AXMEMO_OBS_JSON_ESCAPE_HH
#define AXMEMO_OBS_JSON_ESCAPE_HH

#include <string>
#include <string_view>

namespace axmemo {

/** @p raw escaped per RFC 8259, without the surrounding quotes: `"`,
 * `\`, `\n`, `\r` and `\t` get their short escapes, any other control
 * byte its `\u00XX` form, and every other byte passes through. */
std::string jsonEscape(std::string_view raw);

} // namespace axmemo

#endif // AXMEMO_OBS_JSON_ESCAPE_HH
