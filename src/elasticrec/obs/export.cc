#include "elasticrec/obs/export.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <set>
#include <sstream>

#include "elasticrec/common/error.h"
#include "elasticrec/obs/perfetto.h"

namespace erec::obs {

namespace {

/**
 * Render a sample value: integers without a fraction (counters and
 * bucket counts stay grep-able), everything else with full round-trip
 * precision.
 */
std::string
formatValue(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    if (v == std::rint(v) && std::abs(v) < 1e15) {
        std::ostringstream oss;
        oss << static_cast<long long>(v);
        return oss.str();
    }
    std::ostringstream oss;
    oss << std::setprecision(std::numeric_limits<double>::max_digits10)
        << v;
    return oss.str();
}

std::string
escapeHelp(const std::string &help)
{
    std::string out;
    out.reserve(help.size());
    for (char c : help) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out.push_back(c);
    }
    return out;
}

/** Render `{k="v",...}`, optionally with an extra trailing label. */
std::string
renderLabels(const Labels &labels, const std::string &extra_key = "",
             const std::string &extra_value = "")
{
    std::string out;
    for (const auto &[k, v] : labels) {
        out += out.empty() ? "{" : ",";
        out += k;
        out += "=\"";
        out += escapeLabelValue(v);
        out += '"';
    }
    if (!extra_key.empty()) {
        out += out.empty() ? "{" : ",";
        out += extra_key;
        out += "=\"";
        out += escapeLabelValue(extra_value);
        out += '"';
    }
    if (!out.empty())
        out += '}';
    return out;
}

std::string
escapeJson(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

/** Minimal recursive-descent parser for the trace JSON-lines schema. */
class JsonCursor
{
  public:
    explicit JsonCursor(const std::string &text) : s_(text) {}

    void skipWs()
    {
        while (i_ < s_.size() &&
               (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\r'))
            ++i_;
    }

    bool atEnd()
    {
        skipWs();
        return i_ >= s_.size();
    }

    char peek()
    {
        skipWs();
        ERC_CHECK(i_ < s_.size(), "trace json: unexpected end of input");
        return s_[i_];
    }

    void expect(char c)
    {
        ERC_CHECK(peek() == c, "trace json: expected '"
                                   << c << "' at offset " << i_);
        ++i_;
    }

    bool consume(char c)
    {
        if (!atEnd() && peek() == c) {
            ++i_;
            return true;
        }
        return false;
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            ERC_CHECK(i_ < s_.size(), "trace json: unterminated string");
            char c = s_[i_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            ERC_CHECK(i_ < s_.size(), "trace json: dangling escape");
            char e = s_[i_++];
            switch (e) {
              case '"':
              case '\\':
              case '/':
                out.push_back(e);
                break;
              case 'n':
                out.push_back('\n');
                break;
              case 't':
                out.push_back('\t');
                break;
              case 'r':
                out.push_back('\r');
                break;
              case 'u': {
                ERC_CHECK(i_ + 4 <= s_.size(),
                          "trace json: truncated \\u escape");
                unsigned code = 0;
                for (int k = 0; k < 4; ++k) {
                    const char h = s_[i_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        erec::fatal("trace json: bad \\u escape digit");
                }
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(
                        static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(
                        static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
              }
              default:
                erec::fatal("trace json: unsupported escape");
            }
        }
    }

    std::uint64_t parseUint()
    {
        skipWs();
        const std::size_t start = i_;
        std::uint64_t v = 0;
        while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') {
            const auto digit = static_cast<std::uint64_t>(s_[i_] - '0');
            ERC_CHECK(v <= (UINT64_MAX - digit) / 10,
                      "trace json: integer overflow at offset " << start);
            v = v * 10 + digit;
            ++i_;
        }
        ERC_CHECK(i_ > start,
                  "trace json: expected integer at offset " << start);
        return v;
    }

    std::int64_t parseInt()
    {
        const bool neg = consume('-');
        const std::uint64_t v = parseUint();
        ERC_CHECK(v <= static_cast<std::uint64_t>(INT64_MAX),
                  "trace json: integer out of range at offset " << i_);
        return neg ? -static_cast<std::int64_t>(v)
                   : static_cast<std::int64_t>(v);
    }

  private:
    const std::string &s_;
    std::size_t i_ = 0;
};

/** Parse one erec_trace/v2 line; every key is required exactly
 *  once, so a truncated or foreign line cannot pass as an event. */
SpanEvent
parseEventLine(const std::string &line)
{
    constexpr std::size_t kNumKeys = 8;
    JsonCursor cur(line);
    SpanEvent e;
    std::set<std::string> seen;
    cur.expect('{');
    while (cur.peek() != '}') {
        if (!seen.empty())
            cur.expect(',');
        const std::string key = cur.parseString();
        cur.expect(':');
        ERC_CHECK(seen.insert(key).second,
                  "trace json: duplicate key '" << key << "'");
        if (key == "trace_id") {
            e.traceId = cur.parseUint();
        } else if (key == "span_id") {
            e.spanId = cur.parseUint();
        } else if (key == "parent_id") {
            e.parentId = cur.parseUint();
        } else if (key == "kind") {
            const std::string kind = cur.parseString();
            ERC_CHECK(kind == "span" || kind == "link",
                      "trace json: unknown kind '" << kind << "'");
            e.kind = kind == "span" ? EventKind::Span : EventKind::Link;
        } else if (key == "name") {
            e.name = internSpanName(cur.parseString());
        } else if (key == "start_us") {
            e.startUs = cur.parseInt();
        } else if (key == "end_us") {
            e.endUs = cur.parseInt();
        } else if (key == "arg") {
            e.arg = cur.parseUint();
        } else {
            erec::fatal("trace json: unknown key '" + key + "'");
        }
    }
    cur.expect('}');
    ERC_CHECK(cur.atEnd(), "trace json: trailing content on line");
    ERC_CHECK(seen.size() == kNumKeys,
              "trace json: an erec_trace/v2 event needs all "
                  << kNumKeys << " keys");
    return e;
}

} // namespace

std::string
escapeLabelValue(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out.push_back(c);
    }
    return out;
}

void
writePrometheusText(std::ostream &os, const Registry &registry)
{
    for (const auto &[name, fam] : registry.families()) {
        // A family can outlive its last child (Registry::remove); a
        // header with no samples is useless and trips strict parsers.
        if (fam.children.empty())
            continue;
        os << "# HELP " << name << ' ' << escapeHelp(fam.help) << '\n';
        os << "# TYPE " << name << ' ' << toString(fam.kind) << '\n';
        for (const auto &[key, child] : fam.children) {
            switch (fam.kind) {
              case MetricKind::Counter:
                os << name << renderLabels(child.labels) << ' '
                   << formatValue(child.counter->value()) << '\n';
                break;
              case MetricKind::Gauge:
                os << name << renderLabels(child.labels) << ' '
                   << formatValue(child.gauge->value()) << '\n';
                break;
              case MetricKind::Histogram: {
                const Histogram &h = *child.histogram;
                std::uint64_t cumulative = 0;
                for (std::size_t i = 0; i < h.bounds().size(); ++i) {
                    cumulative += h.bucketCount(i);
                    os << name << "_bucket"
                       << renderLabels(child.labels, "le",
                                       formatValue(h.bounds()[i]))
                       << ' ' << cumulative << '\n';
                }
                os << name << "_bucket"
                   << renderLabels(child.labels, "le", "+Inf") << ' '
                   << h.count() << '\n';
                os << name << "_sum" << renderLabels(child.labels) << ' '
                   << formatValue(h.sum()) << '\n';
                os << name << "_count" << renderLabels(child.labels)
                   << ' ' << h.count() << '\n';
                break;
              }
            }
        }
    }
}

std::string
toPrometheusText(const Registry &registry)
{
    std::ostringstream oss;
    writePrometheusText(oss, registry);
    return oss.str();
}

void
writeTraceJsonLines(std::ostream &os, const std::vector<SpanEvent> &events)
{
    for (const SpanEvent &e : events)
        os << "{\"trace_id\":" << e.traceId << ",\"span_id\":" << e.spanId
           << ",\"parent_id\":" << e.parentId << ",\"kind\":\""
           << (e.kind == EventKind::Link ? "link" : "span")
           << "\",\"name\":\"" << escapeJson(spanName(e.name))
           << "\",\"start_us\":" << e.startUs << ",\"end_us\":" << e.endUs
           << ",\"arg\":" << e.arg << "}\n";
}

std::vector<SpanEvent>
readTraceJsonLines(const std::string &text)
{
    std::vector<SpanEvent> events;
    std::istringstream iss(text);
    std::string line;
    while (std::getline(iss, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        events.push_back(parseEventLine(line));
    }
    return events;
}

void
writeMetricsFiles(const std::string &dir, const std::string &stem,
                  const Registry &registry,
                  const ExportArtifacts &artifacts)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(fs::path(dir), ec);
    ERC_CHECK(!ec, "cannot create metrics directory '" << dir << "'");

    const fs::path prom = fs::path(dir) / (stem + ".prom");
    std::ofstream prom_os(prom);
    ERC_CHECK(prom_os.good(),
              "cannot open '" << prom.string() << "' for writing");
    writePrometheusText(prom_os, registry);

    if (artifacts.spans != nullptr) {
        const fs::path jsonl = fs::path(dir) / (stem + "_traces.jsonl");
        std::ofstream trace_os(jsonl);
        ERC_CHECK(trace_os.good(),
                  "cannot open '" << jsonl.string() << "' for writing");
        writeTraceJsonLines(trace_os, *artifacts.spans);
        const fs::path perfetto = fs::path(dir) / (stem + "_perfetto.json");
        std::ofstream perfetto_os(perfetto);
        ERC_CHECK(perfetto_os.good(),
                  "cannot open '" << perfetto.string() << "' for writing");
        writePerfettoJson(perfetto_os, *artifacts.spans);
    }
    if (artifacts.alerts != nullptr) {
        const fs::path jsonl = fs::path(dir) / (stem + "_alerts.jsonl");
        std::ofstream alert_os(jsonl);
        ERC_CHECK(alert_os.good(),
                  "cannot open '" << jsonl.string() << "' for writing");
        writeAlertJsonLines(alert_os, *artifacts.alerts);
    }
}

} // namespace erec::obs
