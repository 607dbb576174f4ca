/**
 * @file
 * Tests for the shared JSON codec (common/json.h): document parsing,
 * strictness (numbers, duplicate keys, nesting depth, escapes), exact
 * 64-bit integer access, and the escaper, including the telemetry
 * formats that read and write through it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "elasticrec/common/error.h"
#include "elasticrec/common/json.h"
#include "elasticrec/obs/export.h"
#include "elasticrec/obs/perfetto.h"
#include "elasticrec/obs/span_name.h"

namespace erec {
namespace {

/** The parse error's message, or "" when `text` parses. */
std::string
parseError(const std::string &text)
{
    try {
        parseJson(text);
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "";
}

TEST(JsonTest, ParsesBenchDocument)
{
    const auto doc = parseJson(
        "{\n  \"bench\": \"serving_throughput\",\n"
        "  \"quick\": true,\n  \"sweep\": [\n"
        "    {\"threads\": 1, \"qps\": 1000.000000, \"p50_ms\": 1.5},\n"
        "    {\"threads\": 4, \"qps\": 2500.000000, \"p50_ms\": 2.0}\n"
        "  ],\n  \"scaling\": 2.0\n}\n");
    ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
    const auto *bench = doc.find("bench");
    ASSERT_NE(bench, nullptr);
    EXPECT_EQ(bench->string, "serving_throughput");
    EXPECT_TRUE(doc.find("quick")->boolean);
    const auto *sweep = doc.find("sweep");
    ASSERT_EQ(sweep->kind, JsonValue::Kind::Array);
    ASSERT_EQ(sweep->array.size(), 2u);
    EXPECT_DOUBLE_EQ(sweep->array[0].find("qps")->number, 1000.0);
    EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonTest, ParsesEscapesNegativesAndNulls)
{
    const auto doc = parseJson(
        R"({"s": "a\"b\nc", "neg": -2.5e2, "none": null, "empty": {}})");
    EXPECT_EQ(doc.find("s")->string, "a\"b\nc");
    EXPECT_DOUBLE_EQ(doc.find("neg")->number, -250.0);
    EXPECT_EQ(doc.find("none")->kind, JsonValue::Kind::Null);
    EXPECT_TRUE(doc.find("empty")->object.empty());
}

TEST(JsonTest, RejectsMalformedInput)
{
    EXPECT_THROW(parseJson("{\"a\": 1} trailing"), ConfigError);
    EXPECT_THROW(parseJson("{\"a\" 1}"), ConfigError);
    EXPECT_THROW(parseJson("[1, 2"), ConfigError);
    EXPECT_THROW(parseJson("{\"s\": \"unterminated}"), ConfigError);
    EXPECT_THROW(parseJson(""), ConfigError);
    EXPECT_THROW(parseJson("nope"), ConfigError);
}

TEST(JsonTest, DecodesEveryStringEscape)
{
    const auto doc = parseJson(
        R"(["\"\\\/\b\f\n\r\t", "\u0041\u00e9\u20AC", "\ud83d\ude00"])");
    EXPECT_EQ(doc.array[0].string, "\"\\/\b\f\n\r\t");
    EXPECT_EQ(doc.array[1].string, "A\xc3\xa9\xe2\x82\xac");
    EXPECT_EQ(doc.array[2].string, "\xf0\x9f\x98\x80");
    EXPECT_THROW(parseJson(R"(["\ud83d"])"), ConfigError);
    EXPECT_THROW(parseJson(R"(["\ude00"])"), ConfigError);
    EXPECT_THROW(parseJson(R"(["\u12g4"])"), ConfigError);
    EXPECT_THROW(parseJson(R"(["\x"])"), ConfigError);
    EXPECT_THROW(parseJson("[\"raw\nnewline\"]"), ConfigError);
}

TEST(JsonTest, EscapeRoundTripsEveryByte)
{
    std::string all;
    for (int c = 1; c < 256; ++c)
        all.push_back(static_cast<char>(c));
    EXPECT_EQ(parseJson("\"" + jsonEscape(all) + "\"").string, all);
    // Strings that need no escaping are written unchanged.
    EXPECT_EQ(jsonEscape("sparse/t0-s1/service"), "sparse/t0-s1/service");
    EXPECT_EQ(jsonEscape("a\"b\\c\nd\re\tf\x01"),
              "a\\\"b\\\\c\\nd\\re\\tf\\u0001");
}

TEST(JsonTest, RejectsNumbersThatAreNotJson)
{
    for (const char *bad :
         {"+1", "01", "-01", "1.", ".5", "-", "1e", "1e+", "inf", "-inf",
          "NaN", "0x10", "1.5.2", "--1", "1e999", "-1e999"})
        EXPECT_THROW(parseJson(bad), ConfigError) << bad;
    for (const char *good : {"0", "-0", "1", "-12", "0.5", "1e3", "1E-3",
                             "-2.5e+2", "1e-400"})
        EXPECT_NO_THROW(parseJson(good)) << good;
}

TEST(JsonTest, RejectsDuplicateKeysAtTheirOffset)
{
    const std::string msg = parseError(R"({"a": 1, "b": 2, "a": 3})");
    EXPECT_NE(msg.find("duplicate key \"a\""), std::string::npos) << msg;
    // The offset is the repeated member's value.
    EXPECT_NE(msg.find("byte 22"), std::string::npos) << msg;
    // Keys compare decoded: an escaped spelling is the same key.
    EXPECT_THROW(parseJson(R"({"a": 1, "\u0061": 2})"), ConfigError);
    EXPECT_NO_THROW(parseJson(R"([{"a": 1}, {"a": 2}])"));
    // A wide object: the duplicate may sit anywhere.
    std::string wide = "{";
    for (int k = 0; k < 40; ++k)
        wide += "\"k" + std::to_string(k) + "\": " + std::to_string(k) + ", ";
    EXPECT_NO_THROW(parseJson(wide + "\"last\": 0}"));
    EXPECT_THROW(parseJson(wide + "\"k3\": 0}"), ConfigError);
    EXPECT_THROW(parseJson(wide + "\"k39\": 0}"), ConfigError);
}

TEST(JsonTest, ErrorsNameTheByteOffset)
{
    EXPECT_NE(parseError("[1, +1]").find("byte 4"), std::string::npos);
    EXPECT_NE(parseError("[1] x").find("byte 4"), std::string::npos);
    EXPECT_NE(parseError("{\"k\": 01}").find("byte 6"), std::string::npos);
}

TEST(JsonTest, DeepNestingThrowsInsteadOfOverflowingTheStack)
{
    EXPECT_THROW(parseJson(std::string(1000000, '[')), ConfigError);
    EXPECT_THROW(parseJson(std::string(1000000, '{')), ConfigError);
    const std::string deepest = std::string(kJsonMaxDepth, '[') +
                                std::string(kJsonMaxDepth, ']');
    EXPECT_NO_THROW(parseJson(deepest));
    EXPECT_THROW(parseJson("[" + deepest + "]"), ConfigError);
}

TEST(JsonTest, ExactSixtyFourBitIntegers)
{
    EXPECT_EQ(parseJson("18446744073709551615").asUint64(),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(parseJson("9223372036854775809").asUint64(),
              9223372036854775809ull);
    EXPECT_EQ(parseJson("-9223372036854775808").asInt64(),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(parseJson("9223372036854775807").asInt64(),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(parseJson("-0").asInt64(), 0);
    EXPECT_THROW(parseJson("18446744073709551616").asUint64(),
                 ConfigError);
    EXPECT_THROW(parseJson("9223372036854775808").asInt64(), ConfigError);
    EXPECT_THROW(parseJson("-9223372036854775809").asInt64(),
                 ConfigError);
    EXPECT_THROW(parseJson("-1").asUint64(), ConfigError);
    EXPECT_THROW(parseJson("1.0").asUint64(), ConfigError);
    EXPECT_THROW(parseJson("1e3").asInt64(), ConfigError);
    EXPECT_THROW(parseJson("\"1\"").asInt64(), ConfigError);
}

TEST(JsonTest, JsonLinesSkipBlankLinesAndCountOffsetsFromTheStart)
{
    std::vector<std::int64_t> seen;
    forEachJsonLine("1\n\n  \r\n-2\r\n3", [&](const JsonValue &v) {
        seen.push_back(v.asInt64());
    });
    EXPECT_EQ(seen, (std::vector<std::int64_t>{1, -2, 3}));
    try {
        forEachJsonLine("{}\n{} x\n", [](const JsonValue &) {});
        FAIL() << "trailing content accepted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("byte 6"), std::string::npos)
            << e.what();
    }
}

TEST(JsonTest, BatchTraceIdPastTwoToTheFiftyThreeRoundTrips)
{
    obs::SpanEvent e;
    e.traceId = 9223372036854775809ull; // kBatchTraceBit | 1.
    e.spanId = obs::kRootSpanId;
    e.name = obs::internSpanName("batch");
    e.startUs = 0;
    e.endUs = 5;
    std::ostringstream oss;
    obs::writeTraceJsonLines(oss, {e});
    EXPECT_NE(oss.str().find("\"trace_id\":9223372036854775809"),
              std::string::npos);
    const auto back = obs::readTraceJsonLines(oss.str());
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].traceId, 9223372036854775809ull);
}

TEST(JsonTest, PerfettoValidatorRejectsOverflowingTimestamp)
{
    const std::string text =
        "{\"traceEvents\":[\n"
        "{\"name\":\"q\",\"ph\":\"X\",\"ts\":99999999999999999999,"
        "\"dur\":1,\"pid\":1,\"tid\":1}\n]}\n";
    const auto errors = obs::validatePerfettoJson(text);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("event 1"), std::string::npos) << errors[0];
    EXPECT_NE(errors[0].find("99999999999999999999"), std::string::npos)
        << errors[0];
}

TEST(JsonTest, PerfettoExportEscapesNamesItsValidatorReads)
{
    obs::SpanEvent e;
    e.traceId = 1;
    e.spanId = obs::kRootSpanId;
    e.name = obs::internSpanName("two\nlines \"quoted\"");
    e.startUs = 0;
    e.endUs = 5;
    std::ostringstream oss;
    obs::writePerfettoJson(oss, {e});
    EXPECT_EQ(obs::validatePerfettoJson(oss.str()),
              std::vector<std::string>{});
    const auto doc = parseJson(oss.str());
    EXPECT_EQ(doc.at("traceEvents").array.at(0).at("name").asString(),
              "two\nlines \"quoted\"");
}

} // namespace
} // namespace erec
