#include "elasticrec/obs/slo.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <utility>

#include "elasticrec/common/error.h"
#include "elasticrec/common/json.h"

namespace erec::obs {

namespace {

/** Lexer over one rule expression; whitespace-insensitive. */
class RuleCursor
{
  public:
    explicit RuleCursor(const std::string &s) : s_(s) {}

    void skipWs()
    {
        while (i_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[i_])))
            ++i_;
    }

    bool atEnd()
    {
        skipWs();
        return i_ >= s_.size();
    }

    bool consume(char c)
    {
        skipWs();
        if (i_ < s_.size() && s_[i_] == c) {
            ++i_;
            return true;
        }
        return false;
    }

    /** [a-zA-Z_][a-zA-Z0-9_-]* — covers deployment and gauge names. */
    std::string ident()
    {
        skipWs();
        const std::size_t start = i_;
        while (i_ < s_.size() &&
               (std::isalnum(static_cast<unsigned char>(s_[i_])) ||
                s_[i_] == '_' || s_[i_] == '-'))
            ++i_;
        ERC_CHECK(i_ > start,
                  "alert rule: expected identifier at offset " << start
                                                               << " in '"
                                                               << s_ << "'");
        return s_.substr(start, i_ - start);
    }

    double number()
    {
        skipWs();
        const char *begin = s_.c_str() + i_;
        char *end = nullptr;
        const double v = std::strtod(begin, &end);
        ERC_CHECK(end != begin, "alert rule: expected number at offset "
                                    << i_ << " in '" << s_ << "'");
        i_ += static_cast<std::size_t>(end - begin);
        return v;
    }

    /** ms | s | % | nothing (raw units). */
    std::string unit()
    {
        skipWs();
        if (i_ < s_.size() && s_[i_] == '%') {
            ++i_;
            return "%";
        }
        std::size_t j = i_;
        while (j < s_.size() &&
               std::isalpha(static_cast<unsigned char>(s_[j])))
            ++j;
        const std::string word = s_.substr(i_, j - i_);
        if (word == "ms" || word == "s") {
            i_ = j;
            return word;
        }
        return ""; // `for` or end of input: no unit.
    }

    std::size_t offset() const { return i_; }

  private:
    const std::string &s_;
    std::size_t i_ = 0;
};

} // namespace

const char *
toString(SignalKind kind)
{
    switch (kind) {
      case SignalKind::P95:
        return "p95";
      case SignalKind::ViolationRatio:
        return "violation_ratio";
      case SignalKind::Qps:
        return "qps";
      case SignalKind::GaugeValue:
        return "gauge";
      case SignalKind::LostQueries:
        return "lost_queries";
    }
    return "?";
}

AlertRule
parseAlertRule(const std::string &name, const std::string &expr)
{
    ERC_CHECK(!name.empty(), "alert rule needs a name");
    AlertRule rule;
    rule.name = name;
    RuleCursor cur(expr);

    const std::string head = cur.ident();
    if (head == "p95")
        rule.signal.kind = SignalKind::P95;
    else if (head == "violation_ratio")
        rule.signal.kind = SignalKind::ViolationRatio;
    else if (head == "qps")
        rule.signal.kind = SignalKind::Qps;
    else if (head == "gauge")
        rule.signal.kind = SignalKind::GaugeValue;
    else if (head == "lost_queries")
        rule.signal.kind = SignalKind::LostQueries;
    else
        erec::fatal("alert rule '" + name + "': unknown signal '" + head +
                    "'");

    if (rule.signal.kind != SignalKind::LostQueries) {
        ERC_CHECK(cur.consume('('), "alert rule '"
                                        << name << "': expected '(' after "
                                        << head);
        rule.signal.target = cur.ident();
        ERC_CHECK(cur.consume(')'), "alert rule '"
                                        << name
                                        << "': expected ')' after target");
    }

    ERC_CHECK(cur.consume('>'),
              "alert rule '" << name << "': only '>' comparisons are "
                             << "supported");

    rule.threshold = cur.number();
    const std::string u = cur.unit();
    if (u == "%")
        rule.threshold /= 100.0; // ratios are fractions internally
    else if (u == "s")
        rule.threshold *= 1000.0; // latency signals are in ms

    if (!cur.atEnd()) {
        const std::string kw = cur.ident();
        ERC_CHECK(kw == "for", "alert rule '" << name << "': expected "
                                              << "'for', got '" << kw
                                              << "'");
        const double dur = cur.number();
        const std::string du = cur.unit();
        ERC_CHECK(du == "ms" || du == "s",
                  "alert rule '" << name
                                 << "': duration needs an ms or s unit");
        rule.holdFor = static_cast<SimTime>(
            dur * static_cast<double>(du == "s" ? units::kSecond
                                                : units::kMillisecond));
        ERC_CHECK(cur.atEnd(), "alert rule '"
                                   << name
                                   << "': trailing content at offset "
                                   << cur.offset());
    }
    ERC_CHECK(rule.holdFor >= 0,
              "alert rule '" << name << "': negative hold duration");
    return rule;
}

SloTracker::SloTracker(SignalReader reader) : reader_(std::move(reader))
{
    ERC_CHECK(reader_ != nullptr, "SloTracker needs a signal reader");
}

void
SloTracker::addRule(AlertRule rule)
{
    for (const RuleState &rs : rules_)
        ERC_CHECK(rs.rule.name != rule.name,
                  "duplicate alert rule '" << rule.name << "'");
    RuleState rs;
    rs.rule = std::move(rule);
    if (obs_ != nullptr)
        bindRule(rs);
    rules_.push_back(std::move(rs));
}

void
SloTracker::addRule(const std::string &name, const std::string &expr)
{
    addRule(parseAlertRule(name, expr));
}

void
SloTracker::bindRule(RuleState &rs)
{
    rs.obsFired = &obs_->counter(
        "erec_alert_transitions_total",
        "Alert state transitions (firing and resolved).",
        {{"alert", rs.rule.name}, {"transition", "firing"}});
    rs.obsResolved = &obs_->counter(
        "erec_alert_transitions_total",
        "Alert state transitions (firing and resolved).",
        {{"alert", rs.rule.name}, {"transition", "resolved"}});
    rs.obsFiring =
        &obs_->gauge("erec_alert_firing",
                     "1 while the alert rule is firing, else 0.",
                     {{"alert", rs.rule.name}});
    rs.obsFiring->set(rs.firing ? 1.0 : 0.0);
}

void
SloTracker::bindObservability(Registry *registry)
{
    obs_ = registry;
    for (RuleState &rs : rules_) {
        if (obs_ == nullptr) {
            rs.obsFired = nullptr;
            rs.obsResolved = nullptr;
            rs.obsFiring = nullptr;
        } else {
            bindRule(rs);
        }
    }
}

void
SloTracker::evaluate(SimTime now)
{
    for (RuleState &rs : rules_) {
        const double value = reader_(rs.rule.signal, now);
        const bool breach = value > rs.rule.threshold;
        if (!breach) {
            rs.breachSince = -1;
            if (rs.firing) {
                rs.firing = false;
                events_.push_back({now, rs.rule.name, false, value});
                if (rs.obsResolved != nullptr)
                    rs.obsResolved->inc();
                if (rs.obsFiring != nullptr)
                    rs.obsFiring->set(0.0);
            }
            continue;
        }
        if (rs.breachSince < 0)
            rs.breachSince = now;
        if (!rs.firing && now - rs.breachSince >= rs.rule.holdFor) {
            rs.firing = true;
            events_.push_back({now, rs.rule.name, true, value});
            if (rs.obsFired != nullptr)
                rs.obsFired->inc();
            if (rs.obsFiring != nullptr)
                rs.obsFiring->set(1.0);
        }
    }
}

void
SloTracker::reset()
{
    events_.clear();
    for (RuleState &rs : rules_) {
        rs.firing = false;
        rs.breachSince = -1;
        if (rs.obsFiring != nullptr)
            rs.obsFiring->set(0.0);
    }
}

bool
SloTracker::firing(const std::string &name) const
{
    for (const RuleState &rs : rules_)
        if (rs.rule.name == name)
            return rs.firing;
    return false;
}

namespace {

/** A finite value as a JSON number; a non-finite one, which JSON
 *  cannot spell as a number, as the Prometheus string "+Inf", "-Inf"
 *  or "NaN". */
std::string
formatAlertValue(double v)
{
    if (std::isnan(v))
        return "\"NaN\"";
    if (std::isinf(v))
        return v > 0 ? "\"+Inf\"" : "\"-Inf\"";
    std::ostringstream oss;
    oss.precision(17);
    oss << v;
    return oss.str();
}

double
alertValue(const JsonValue &v)
{
    if (v.kind == JsonValue::Kind::Number)
        return v.number;
    const std::string &s = v.asString();
    if (s != "+Inf" && s != "-Inf" && s != "NaN")
        v.fail("alert value must be a number, \"+Inf\", \"-Inf\" or "
               "\"NaN\"");
    return std::strtod(s.c_str(), nullptr);
}

/** Decode one alert line: exactly the four keys the writer emits. */
AlertEvent
parseAlert(const JsonValue &line)
{
    if (line.kind != JsonValue::Kind::Object || line.object.size() != 4)
        line.fail("an alert event is an object with exactly the keys "
                  "t_us, alert, state and value");
    AlertEvent e;
    e.time = line.at("t_us").asInt64();
    e.alert = line.at("alert").asString();
    const JsonValue &state = line.at("state");
    if (state.asString() != "firing" && state.string != "resolved")
        state.fail("bad alert state '" + state.string + "'");
    e.firing = state.string == "firing";
    e.value = alertValue(line.at("value"));
    return e;
}

} // namespace

void
writeAlertJsonLines(std::ostream &os, const std::vector<AlertEvent> &events)
{
    for (const AlertEvent &e : events) {
        os << "{\"t_us\":" << e.time << ",\"alert\":\""
           << jsonEscape(e.alert) << "\",\"state\":\""
           << (e.firing ? "firing" : "resolved")
           << "\",\"value\":" << formatAlertValue(e.value) << "}\n";
    }
}

std::string
toAlertJsonLines(const std::vector<AlertEvent> &events)
{
    std::ostringstream oss;
    writeAlertJsonLines(oss, events);
    return oss.str();
}

std::vector<AlertEvent>
readAlertJsonLines(const std::string &text)
{
    std::vector<AlertEvent> events;
    forEachJsonLine(text, [&](const JsonValue &line) {
        events.push_back(parseAlert(line));
    });
    return events;
}

} // namespace erec::obs
