/**
 * @file
 * JSON-export tests: structural validity (balanced braces, proper
 * escaping) and presence/consistency of the key metrics.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/json_export.hh"
#include "core/json_value.hh"
#include "obs/json_escape.hh"

namespace axmemo {
namespace {

/** Tiny structural validator: balanced braces/brackets outside strings. */
bool
balanced(const std::string &json)
{
    int depth = 0;
    bool inString = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (inString) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inString = false;
            continue;
        }
        if (c == '"')
            inString = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return depth == 0 && !inString;
}

TEST(Json, EscapeSpecials)
{
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("line\nbreak"), "line\\nbreak");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(jsonEscape("plain"), "plain");
}

TEST(Json, DeepNestingIsAParseErrorNotACrash)
{
    // One '[' or '{' per recursion level: without a depth cap these
    // lines would overflow the parser's stack.
    constexpr std::size_t depth = 100000;
    std::string arrays(depth, '[');
    std::string objects;
    objects.reserve(depth * 5);
    for (std::size_t i = 0; i < depth; ++i)
        objects += "{\"a\":";
    for (const std::string &text : {arrays, objects}) {
        const Expected<JValue> parsed = parseJsonValue(text);
        ASSERT_FALSE(parsed.ok());
        EXPECT_EQ(parsed.error().code, ErrorCode::Parse);
        EXPECT_NE(parsed.error().message.find("nesting"),
                  std::string::npos)
            << parsed.error().message;
    }

    // Documents nested well within the cap still parse.
    const std::string shallow = std::string(64, '[') + std::string(64, ']');
    EXPECT_TRUE(parseJsonValue(shallow).ok());
}

TEST(Json, RunResultRoundTrip)
{
    auto workload = makeWorkload("fft");
    ExperimentConfig config;
    config.dataset.scale = 0.01;
    const RunResult r =
        ExperimentRunner(config).run(*workload, "axmemo");
    const std::string json = JsonWriter::toJson(r);

    EXPECT_TRUE(balanced(json)) << json;
    EXPECT_NE(json.find("\"mode\":\"axmemo\""), std::string::npos);
    EXPECT_NE(json.find("\"cycles\":"), std::string::npos);
    EXPECT_NE(json.find("\"hit_rate\":"), std::string::npos);
    EXPECT_NE(json.find("\"regions\":["), std::string::npos);
    // The serialized cycle count matches the run.
    EXPECT_NE(json.find("\"cycles\":" +
                        std::to_string(r.stats.cycles)),
              std::string::npos);
}

TEST(Json, ComparisonIncludesBothRuns)
{
    auto workload = makeWorkload("sobel");
    ExperimentConfig config;
    config.dataset.scale = 0.01;
    const Comparison cmp =
        ExperimentRunner(config).compare(*workload, "axmemo");
    const std::string json = JsonWriter::toJson(cmp, "sobel");

    EXPECT_TRUE(balanced(json));
    EXPECT_NE(json.find("\"workload\":\"sobel\""), std::string::npos);
    EXPECT_NE(json.find("\"speedup\":"), std::string::npos);
    EXPECT_NE(json.find("\"baseline\":{"), std::string::npos);
    EXPECT_NE(json.find("\"subject\":{"), std::string::npos);
    EXPECT_NE(json.find("\"mode\":\"baseline\""), std::string::npos);
}

} // namespace
} // namespace axmemo
