#include "elasticrec/common/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <tuple>
#include <string_view>

#include "elasticrec/common/error.h"

namespace erec {

namespace {

[[noreturn]] void
failAt(std::size_t offset, const std::string &what)
{
    erec::fatal("JSON at byte " + std::to_string(offset) + ": " + what);
}

/** Recursive-descent reader over text_[pos_, end_); offsets in its
 *  errors and values count from the start of text_. */
class Parser
{
  public:
    Parser(const std::string &text, std::size_t begin, std::size_t end)
        : text_(text), pos_(begin), end_(end)
    {}

    JsonValue parseDocument()
    {
        JsonValue v = parseValue(0);
        skipWs();
        if (pos_ != end_)
            failAt(pos_, "trailing content after the document");
        return v;
    }

  private:
    /** Consume the next character if it is one of `chars`. */
    bool accept(std::string_view chars)
    {
        if (pos_ >= end_ || chars.find(text_[pos_]) == chars.npos)
            return false;
        ++pos_;
        return true;
    }

    std::size_t digits()
    {
        const std::size_t from = pos_;
        while (accept("0123456789")) {
        }
        return pos_ - from;
    }

    void skipWs()
    {
        while (accept(" \t\n\r")) {
        }
    }

    char peek()
    {
        skipWs();
        if (pos_ >= end_)
            failAt(pos_, "unexpected end of input");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            failAt(pos_, std::string("expected '") + c + "', got '" +
                             text_[pos_] + "'");
        ++pos_;
    }

    bool acceptKeyword(std::string_view kw)
    {
        if (end_ - pos_ < kw.size() ||
            text_.compare(pos_, kw.size(), kw) != 0)
            return false;
        pos_ += kw.size();
        return true;
    }

    JsonValue parseValue(std::size_t depth)
    {
        JsonValue v;
        const char c = peek();
        v.offset = pos_;
        if ((c == '{' || c == '[') && depth >= kJsonMaxDepth)
            failAt(pos_, "nesting deeper than " +
                             std::to_string(kJsonMaxDepth));
        if (c == '{') {
            parseObject(v, depth + 1);
        } else if (c == '[') {
            parseArray(v, depth + 1);
        } else if (c == '"') {
            v.kind = JsonValue::Kind::String;
            v.string = parseString();
        } else if (acceptKeyword("true") || acceptKeyword("false")) {
            v.kind = JsonValue::Kind::Bool;
            v.boolean = c == 't';
        } else if (acceptKeyword("null")) {
            v.kind = JsonValue::Kind::Null;
        } else {
            parseNumber(v);
        }
        return v;
    }

    void parseObject(JsonValue &v, std::size_t depth)
    {
        v.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        if (peek() == '}') {
            ++pos_;
            return;
        }
        do {
            if (peek() != '"')
                failAt(pos_, "expected an object key string");
            std::string key = parseString();
            expect(':');
            v.object.emplace_back(std::move(key), parseValue(depth));
            skipWs();
        } while (accept(","));
        expect('}');
        // Sorting by key finds a duplicate in O(n log n), so a hostile
        // object cannot make the check quadratic.
        std::vector<const std::pair<std::string, JsonValue> *> by_key;
        for (const auto &member : v.object)
            by_key.push_back(&member);
        std::sort(by_key.begin(), by_key.end(), [](auto *a, auto *b) {
            return std::tie(a->first, a->second.offset) <
                   std::tie(b->first, b->second.offset);
        });
        for (std::size_t i = 1; i < by_key.size(); ++i)
            if (by_key[i]->first == by_key[i - 1]->first)
                by_key[i]->second.fail("duplicate key \"" +
                                       by_key[i]->first + "\"");
    }

    void parseArray(JsonValue &v, std::size_t depth)
    {
        v.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        if (peek() == ']') {
            ++pos_;
            return;
        }
        do {
            v.array.push_back(parseValue(depth));
            skipWs();
        } while (accept(","));
        expect(']');
    }

    unsigned parseHex4()
    {
        static constexpr std::string_view kHex = "0123456789abcdefABCDEF";
        unsigned code = 0;
        for (int k = 0; k < 4; ++k, ++pos_) {
            const std::size_t digit =
                kHex.find(pos_ < end_ ? text_[pos_] : '\0');
            if (digit == kHex.npos)
                failAt(pos_, "bad \\u escape digit");
            code = code * 16 +
                   static_cast<unsigned>(digit < 16 ? digit : digit - 6);
        }
        return code;
    }

    /** Decode a \u escape (the `\u` consumed) to UTF-8, pairing
     *  surrogates. */
    void appendCodePoint(std::string &out)
    {
        const std::size_t at = pos_ - 2;
        unsigned code = parseHex4();
        if (code >= 0xDC00 && code <= 0xDFFF)
            failAt(at, "unpaired low surrogate in \\u escape");
        if (code >= 0xD800 && code <= 0xDBFF) {
            const unsigned low =
                acceptKeyword("\\u") ? parseHex4() : 0;
            if (low < 0xDC00 || low > 0xDFFF)
                failAt(at, "unpaired high surrogate in \\u escape");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        // Lead byte, then 6-bit continuation bytes, high bits first.
        const int extra =
            code < 0x80 ? 0 : code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
        static constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
        out.push_back(static_cast<char>(kLead[extra] | (code >> (6 * extra))));
        for (int k = extra - 1; k >= 0; --k)
            out.push_back(
                static_cast<char>(0x80 | ((code >> (6 * k)) & 0x3F)));
    }

    std::string parseString()
    {
        static constexpr std::string_view kEscapes = "\"\\/bfnrt";
        static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
        const std::size_t start = pos_++;
        std::string out;
        while (true) {
            if (pos_ >= end_)
                failAt(start, "unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                failAt(pos_ - 1, "unescaped control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= end_)
                failAt(start, "unterminated string");
            const char e = text_[pos_++];
            if (e == 'u')
                appendCodePoint(out);
            else if (kEscapes.find(e) != kEscapes.npos)
                out.push_back(kDecoded[kEscapes.find(e)]);
            else
                failAt(pos_ - 2, "bad string escape");
        }
    }

    /** -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? and nothing else. */
    void parseNumber(JsonValue &v)
    {
        const std::size_t start = pos_;
        accept("-");
        const std::size_t int_digits = digits();
        if (pos_ == start)
            failAt(start, "expected a value");
        bool ok = int_digits == 1 ||
                  (int_digits > 1 && text_[pos_ - int_digits] != '0');
        if (ok && accept("."))
            ok = digits() > 0;
        if (ok && accept("eE")) {
            accept("+-");
            ok = digits() > 0;
        }
        v.kind = JsonValue::Kind::Number;
        v.string = text_.substr(start, pos_ - start);
        if (!ok)
            failAt(start, "not a JSON number: " + v.string);
        v.number = std::strtod(v.string.c_str(), nullptr);
        if (!std::isfinite(v.number))
            failAt(start, "number " + v.string + " overflows a double");
    }

    const std::string &text_;
    std::size_t pos_;
    const std::size_t end_;
};

/** The exact integer a Number's literal spells; fails on a fraction,
 *  an exponent, a sign on an unsigned type or a value out of range. */
template <typename Int>
Int
exactInteger(const JsonValue &v, const std::string &what)
{
    if (v.kind != JsonValue::Kind::Number)
        v.fail("expected " + what);
    Int out = 0;
    const char *end = v.string.data() + v.string.size();
    const auto [ptr, ec] = std::from_chars(v.string.data(), end, out);
    if (ec != std::errc() || ptr != end)
        v.fail("expected " + what + ", got " + v.string);
    return out;
}

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object)
        if (k == key)
            return &v;
    return nullptr;
}

void
JsonValue::fail(const std::string &what) const
{
    failAt(offset, what);
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    if (kind != Kind::Object)
        fail("expected an object with key \"" + key + "\"");
    const JsonValue *v = find(key);
    if (v == nullptr)
        fail("missing key \"" + key + "\"");
    return *v;
}

const std::string &
JsonValue::asString() const
{
    if (kind != Kind::String)
        fail("expected a string");
    return string;
}

std::uint64_t
JsonValue::asUint64() const
{
    return exactInteger<std::uint64_t>(*this, "an unsigned 64-bit integer");
}

std::int64_t
JsonValue::asInt64() const
{
    return exactInteger<std::int64_t>(*this, "a signed 64-bit integer");
}

JsonValue
parseJson(const std::string &text)
{
    return Parser(text, 0, text.size()).parseDocument();
}

void
forEachJsonLine(const std::string &text,
                const std::function<void(const JsonValue &)> &fn)
{
    for (std::size_t begin = 0; begin < text.size();) {
        const std::size_t end = std::min(text.find('\n', begin), text.size());
        if (text.find_first_not_of(" \t\r", begin) < end)
            fn(Parser(text, begin, end).parseDocument());
        begin = end + 1;
    }
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n' || c == '\t' || c == '\r') {
            out += c == '\n' ? "\\n" : c == '\t' ? "\\t" : "\\r";
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace erec
