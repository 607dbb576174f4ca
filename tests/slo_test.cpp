// Tests for the SLO alert engine: rule grammar, hold-for firing
// semantics, transition counters/log, and the alert JSONL round trip.

#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include <gtest/gtest.h>

#include "elasticrec/common/error.h"
#include "elasticrec/common/units.h"
#include "elasticrec/obs/metric.h"
#include "elasticrec/obs/slo.h"

namespace {

using erec::SimTime;
using erec::obs::AlertEvent;
using erec::obs::AlertRule;
using erec::obs::parseAlertRule;
using erec::obs::Registry;
using erec::obs::SignalKind;
using erec::obs::SloSignal;
using erec::obs::SloTracker;
namespace units = erec::units;

TEST(AlertRuleGrammar, ParsesP95WithHold)
{
    const AlertRule rule =
        parseAlertRule("dense-p95", "p95(dense) > 260ms for 5s");
    EXPECT_EQ(rule.signal.kind, SignalKind::P95);
    EXPECT_EQ(rule.signal.target, "dense");
    EXPECT_DOUBLE_EQ(rule.threshold, 260.0);
    EXPECT_EQ(rule.holdFor, 5 * units::kSecond);
}

TEST(AlertRuleGrammar, ParsesSecondsThresholdAsMillis)
{
    const AlertRule rule = parseAlertRule("p", "p95(rm1) > 0.4s");
    EXPECT_DOUBLE_EQ(rule.threshold, 400.0);
    EXPECT_EQ(rule.holdFor, 0);
}

TEST(AlertRuleGrammar, ParsesPercentAsFraction)
{
    const AlertRule rule =
        parseAlertRule("ratio", "violation_ratio(rm1) > 1%");
    EXPECT_EQ(rule.signal.kind, SignalKind::ViolationRatio);
    EXPECT_DOUBLE_EQ(rule.threshold, 0.01);
}

TEST(AlertRuleGrammar, ParsesBareSignals)
{
    const AlertRule lost = parseAlertRule("lost", "lost_queries > 0");
    EXPECT_EQ(lost.signal.kind, SignalKind::LostQueries);
    EXPECT_TRUE(lost.signal.target.empty());
    EXPECT_DOUBLE_EQ(lost.threshold, 0.0);

    const AlertRule qps = parseAlertRule("qps", "qps(sparse-0) > 120");
    EXPECT_EQ(qps.signal.kind, SignalKind::Qps);
    EXPECT_EQ(qps.signal.target, "sparse-0");

    const AlertRule gauge =
        parseAlertRule("mem", "gauge(memory_gib) > 80 for 500ms");
    EXPECT_EQ(gauge.signal.kind, SignalKind::GaugeValue);
    EXPECT_EQ(gauge.signal.target, "memory_gib");
    EXPECT_EQ(gauge.holdFor, 500 * units::kMillisecond);
}

TEST(AlertRuleGrammar, RejectsMalformedRules)
{
    EXPECT_THROW(parseAlertRule("x", "p96(dense) > 1"),
                 erec::ConfigError);
    EXPECT_THROW(parseAlertRule("x", "p95(dense) < 1"),
                 erec::ConfigError);
    EXPECT_THROW(parseAlertRule("x", "p95(dense) > "), erec::ConfigError);
    EXPECT_THROW(parseAlertRule("x", "p95(dense) > 1 for 5"),
                 erec::ConfigError);
    EXPECT_THROW(parseAlertRule("x", "p95(dense) > 1 forever"),
                 erec::ConfigError);
    EXPECT_THROW(parseAlertRule("x", "p95 > 1"), erec::ConfigError);
    EXPECT_THROW(parseAlertRule("", "lost_queries > 0"),
                 erec::ConfigError);
}

/** Tracker wired to a mutable map of signal values. */
struct Harness
{
    std::map<std::string, double> values;
    SloTracker tracker{[this](const SloSignal &signal, SimTime) {
        const std::string key =
            std::string(toString(signal.kind)) + ":" + signal.target;
        const auto it = values.find(key);
        return it == values.end() ? 0.0 : it->second;
    }};
};

TEST(SloTracker, FiresAfterHoldAndResolves)
{
    Harness h;
    h.tracker.addRule("p95", "p95(dense) > 100ms for 3s");

    h.values["p95:dense"] = 150.0;
    h.tracker.evaluate(1 * units::kSecond);
    EXPECT_FALSE(h.tracker.firing("p95")) << "hold-for not elapsed yet";
    h.tracker.evaluate(2 * units::kSecond);
    EXPECT_FALSE(h.tracker.firing("p95"));
    h.tracker.evaluate(4 * units::kSecond);
    EXPECT_TRUE(h.tracker.firing("p95")) << "breach held for 3s";

    h.values["p95:dense"] = 50.0;
    h.tracker.evaluate(5 * units::kSecond);
    EXPECT_FALSE(h.tracker.firing("p95"));

    ASSERT_EQ(h.tracker.events().size(), 2u);
    EXPECT_EQ(h.tracker.events()[0].alert, "p95");
    EXPECT_TRUE(h.tracker.events()[0].firing);
    EXPECT_EQ(h.tracker.events()[0].time, 4 * units::kSecond);
    EXPECT_DOUBLE_EQ(h.tracker.events()[0].value, 150.0);
    EXPECT_FALSE(h.tracker.events()[1].firing);
    EXPECT_EQ(h.tracker.events()[1].time, 5 * units::kSecond);
}

TEST(SloTracker, InterruptedBreachRestartsHold)
{
    Harness h;
    h.tracker.addRule("p95", "p95(dense) > 100ms for 3s");

    h.values["p95:dense"] = 150.0;
    h.tracker.evaluate(0);
    h.tracker.evaluate(2 * units::kSecond);
    h.values["p95:dense"] = 50.0; // dip below before the hold elapses
    h.tracker.evaluate(3 * units::kSecond);
    h.values["p95:dense"] = 150.0;
    h.tracker.evaluate(4 * units::kSecond);
    h.tracker.evaluate(6 * units::kSecond);
    EXPECT_FALSE(h.tracker.firing("p95")) << "hold restarted at t=4s";
    h.tracker.evaluate(7 * units::kSecond);
    EXPECT_TRUE(h.tracker.firing("p95"));
}

TEST(SloTracker, ZeroHoldFiresImmediately)
{
    Harness h;
    h.tracker.addRule("lost", "lost_queries > 0");
    h.values["lost_queries:"] = 1.0;
    h.tracker.evaluate(7 * units::kSecond);
    EXPECT_TRUE(h.tracker.firing("lost"));
}

TEST(SloTracker, ExportsTransitionCountersAndFiringGauge)
{
    Harness h;
    Registry registry;
    h.tracker.addRule("lost", "lost_queries > 0");
    h.tracker.bindObservability(&registry);

    h.values["lost_queries:"] = 2.0;
    h.tracker.evaluate(units::kSecond);
    EXPECT_EQ(registry.value("erec_alert_firing", {{"alert", "lost"}}),
              1.0);
    EXPECT_EQ(registry.value("erec_alert_transitions_total",
                             {{"alert", "lost"},
                              {"transition", "firing"}}),
              1.0);

    h.values["lost_queries:"] = 0.0;
    h.tracker.evaluate(2 * units::kSecond);
    EXPECT_EQ(registry.value("erec_alert_firing", {{"alert", "lost"}}),
              0.0);
    EXPECT_EQ(registry.value("erec_alert_transitions_total",
                             {{"alert", "lost"},
                              {"transition", "resolved"}}),
              1.0);
}

TEST(SloTracker, ResetClearsStateButKeepsRules)
{
    Harness h;
    h.tracker.addRule("lost", "lost_queries > 0");
    h.values["lost_queries:"] = 1.0;
    h.tracker.evaluate(units::kSecond);
    ASSERT_TRUE(h.tracker.firing("lost"));

    h.tracker.reset();
    EXPECT_FALSE(h.tracker.firing("lost"));
    EXPECT_TRUE(h.tracker.events().empty());
    EXPECT_EQ(h.tracker.ruleCount(), 1u);

    h.tracker.evaluate(units::kSecond);
    EXPECT_TRUE(h.tracker.firing("lost")) << "rules survive reset";
}

TEST(SloTracker, RejectsDuplicateRuleNames)
{
    Harness h;
    h.tracker.addRule("lost", "lost_queries > 0");
    EXPECT_THROW(h.tracker.addRule("lost", "lost_queries > 1"),
                 erec::ConfigError);
}

TEST(AlertJson, RoundTrips)
{
    const std::vector<AlertEvent> events = {
        {5 * units::kSecond, "frontend-p95", true, 312.5},
        {9 * units::kSecond, "frontend-p95", false, 87.25},
        {12 * units::kSecond, "lost-queries", true, 3.0},
    };
    const std::string text = erec::obs::toAlertJsonLines(events);
    const auto parsed = erec::obs::readAlertJsonLines(text);
    ASSERT_EQ(parsed.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(parsed[i].time, events[i].time);
        EXPECT_EQ(parsed[i].alert, events[i].alert);
        EXPECT_EQ(parsed[i].firing, events[i].firing);
        EXPECT_DOUBLE_EQ(parsed[i].value, events[i].value);
    }
    // Writing the parsed events again is byte-identical.
    EXPECT_EQ(erec::obs::toAlertJsonLines(parsed), text);
}

TEST(AlertJson, RoundTripsNamesThatNeedEscaping)
{
    const std::vector<AlertEvent> events = {
        {1 * units::kSecond, "p95 \"frontend\"", true, 312.5},
        {2 * units::kSecond, "back\\slash", true, 1.0},
        {3 * units::kSecond, "two\nlines", false, 0.0},
    };
    const std::string text = erec::obs::toAlertJsonLines(events);
    const auto parsed = erec::obs::readAlertJsonLines(text);
    ASSERT_EQ(parsed.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(parsed[i].alert, events[i].alert);
    EXPECT_EQ(erec::obs::toAlertJsonLines(parsed), text);
}

TEST(AlertJson, RoundTripsNonFiniteValues)
{
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<AlertEvent> events = {
        {1 * units::kSecond, "a", true, inf},
        {2 * units::kSecond, "a", false, -inf},
        {3 * units::kSecond, "b", true,
         std::numeric_limits<double>::quiet_NaN()},
    };
    const std::string text = erec::obs::toAlertJsonLines(events);
    EXPECT_NE(text.find("\"value\":\"+Inf\""), std::string::npos) << text;
    const auto parsed = erec::obs::readAlertJsonLines(text);
    ASSERT_EQ(parsed.size(), 3u);
    EXPECT_EQ(parsed[0].value, inf);
    EXPECT_EQ(parsed[1].value, -inf);
    EXPECT_TRUE(std::isnan(parsed[2].value));
    EXPECT_EQ(erec::obs::toAlertJsonLines(parsed), text);
}

TEST(AlertJson, RejectsMalformedLines)
{
    EXPECT_THROW(erec::obs::readAlertJsonLines("{\"alert\":\"x\"}"),
                 erec::ConfigError);
    EXPECT_THROW(
        erec::obs::readAlertJsonLines(
            "{\"t_us\":1,\"alert\":\"x\",\"state\":\"bad\",\"value\":0}"),
        erec::ConfigError);
    // Lines must be JSON, with exactly the writer's keys.
    const std::string good =
        "{\"t_us\":1,\"alert\":\"x\",\"state\":\"firing\",\"value\":0}";
    EXPECT_NO_THROW(erec::obs::readAlertJsonLines(good));
    EXPECT_THROW(erec::obs::readAlertJsonLines(good + " trailing"),
                 erec::ConfigError);
    EXPECT_THROW(erec::obs::readAlertJsonLines(
                     "garbage \"t_us\":1,\"alert\":\"x\","
                     "\"state\":\"firing\",\"value\":0"),
                 erec::ConfigError);
    std::string extra = good;
    extra.insert(extra.size() - 1, ",\"more\":1");
    EXPECT_THROW(erec::obs::readAlertJsonLines(extra), erec::ConfigError);
    std::string bad_value = good;
    bad_value.replace(bad_value.find("\"value\":0"), 9, "\"value\":\"inf\"");
    EXPECT_THROW(erec::obs::readAlertJsonLines(bad_value),
                 erec::ConfigError);
}

} // namespace
