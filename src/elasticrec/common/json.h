#pragma once

/**
 * @file
 * The repo's one JSON codec: a strict recursive-descent reader and the
 * string escaper every JSON writer uses. The telemetry formats
 * (erec_trace/v2 JSON lines, the alert log, the Perfetto export) and
 * the BENCH_*.json files all read through parseJson and apply their
 * own schema checks to the parsed value.
 *
 * The reader is strict RFC 8259 and raises erec::ConfigError with the
 * byte offset of the fault on: a number that is not JSON (`+1`, `01`,
 * `1.`, `inf`) or overflows a double, an unescaped control character
 * or a bad escape in a string, a duplicate object key, trailing
 * content, and nesting deeper than kJsonMaxDepth. Numbers keep their
 * literal, so asUint64()/asInt64() read integers exactly, past a
 * double's 2^53 (batch trace ids carry bit 63).
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace erec {

/** Deepest array/object nesting parseJson accepts. */
inline constexpr std::size_t kJsonMaxDepth = 256;

/** One parsed JSON value (objects keep member order). */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    /** A Number's value, rounded to the nearest double. */
    double number = 0.0;
    /** A String's decoded value; a Number's literal as written. */
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;
    /** Byte offset of the value in the parsed text. */
    std::size_t offset = 0;

    /** Object member lookup; null when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Raise ConfigError naming this value's byte offset. */
    [[noreturn]] void fail(const std::string &what) const;

    // Checked access: each raises ConfigError (via fail) when the
    // value is not of the asked type or its integer does not fit.
    const JsonValue &at(const std::string &key) const;
    const std::string &asString() const;
    std::uint64_t asUint64() const;
    std::int64_t asInt64() const;
};

/** Parse one JSON document. Raises ConfigError on malformed input. */
JsonValue parseJson(const std::string &text);

/**
 * Parse JSON lines: one document per line, blank lines skipped. Calls
 * `fn` on each document in order; error offsets count from the start
 * of `text`.
 */
void forEachJsonLine(const std::string &text,
                     const std::function<void(const JsonValue &)> &fn);

/** Escape `s` for a JSON string literal (no surrounding quotes). */
std::string jsonEscape(const std::string &s);

} // namespace erec
