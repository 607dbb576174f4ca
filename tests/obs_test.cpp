/**
 * @file
 * Unit tests for the observability layer: metric registry semantics,
 * histogram bucket boundaries, Prometheus text rendering (escaping,
 * labels, cumulative buckets), erec_trace/v2 JSON-lines round-trips
 * and the schema validator over SpanEvents.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "elasticrec/common/error.h"
#include "elasticrec/obs/export.h"
#include "elasticrec/obs/metric.h"
#include "elasticrec/obs/span_name.h"
#include "elasticrec/obs/trace_schema.h"

namespace erec::obs {
namespace {

/** One span event; `end` defaults to an open root. */
SpanEvent
spanEvent(std::uint64_t trace_id, const std::string &name, SimTime start,
          SimTime end, std::uint64_t span_id = kRootSpanId,
          std::uint64_t parent_id = 0)
{
    SpanEvent e;
    e.traceId = trace_id;
    e.spanId = span_id;
    e.parentId = parent_id;
    e.startUs = start;
    e.endUs = end;
    e.name = internSpanName(name);
    return e;
}

std::string
jsonLines(const std::vector<SpanEvent> &events)
{
    std::ostringstream oss;
    writeTraceJsonLines(oss, events);
    return oss.str();
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpper)
{
    // Prometheus semantics: bucket i counts bounds[i-1] < x <= bounds[i].
    Histogram h({1.0, 2.0, 5.0});
    h.observe(0.5); // <= 1.0 -> bucket 0
    h.observe(1.0); // == 1.0 -> bucket 0 (upper bound inclusive)
    h.observe(1.5); // -> bucket 1
    h.observe(2.0); // == 2.0 -> bucket 1
    h.observe(5.0); // == 5.0 -> bucket 2
    h.observe(9.0); // > 5.0 -> +Inf overflow bucket
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u); // +Inf
    EXPECT_EQ(h.count(), 6u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 5.0 + 9.0);
}

TEST(HistogramTest, NanDroppedAndNegativesSaturateToZero)
{
    Histogram h({1.0, 2.0});
    h.observe(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(h.count(), 0u) << "NaN must not be counted";
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    // A negative latency is a clock artifact; it lands in the lowest
    // bucket as 0 instead of corrupting the sum.
    h.observe(-5.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(HistogramTest, RejectsNonIncreasingBounds)
{
    EXPECT_THROW(Histogram({1.0, 1.0}), ConfigError);
    EXPECT_THROW(Histogram({2.0, 1.0}), ConfigError);
    EXPECT_THROW(Histogram({}), ConfigError);
}

TEST(RegistryTest, HandlesAreStableAndKeyedByLabels)
{
    Registry r;
    Counter &a = r.counter("erec_x_total", "help", {{"d", "one"}});
    Counter &b = r.counter("erec_x_total", "help", {{"d", "two"}});
    Counter &a2 = r.counter("erec_x_total", "help", {{"d", "one"}});
    EXPECT_EQ(&a, &a2);
    EXPECT_NE(&a, &b);
    a.inc();
    a.inc(2.5);
    EXPECT_DOUBLE_EQ(r.value("erec_x_total", {{"d", "one"}}), 3.5);
    EXPECT_DOUBLE_EQ(r.value("erec_x_total", {{"d", "two"}}), 0.0);
}

TEST(RegistryTest, AbsentSeriesReadsZeroWithoutInserting)
{
    Registry r;
    EXPECT_DOUBLE_EQ(r.value("erec_missing", {{"d", "x"}}), 0.0);
    EXPECT_TRUE(r.families().empty());
}

TEST(RegistryTest, KindConflictAndBadNamesThrow)
{
    Registry r;
    r.counter("erec_x_total", "help");
    EXPECT_THROW(r.gauge("erec_x_total", "help"), ConfigError);
    EXPECT_THROW(r.counter("0bad", "help"), ConfigError);
    EXPECT_THROW(r.counter("has space", "help"), ConfigError);
    EXPECT_THROW(r.counter("erec_l", "help", {{"0bad", "v"}}),
                 ConfigError);
}

TEST(RegistryTest, RemoveDropsOnlyTheNamedChild)
{
    Registry r;
    r.gauge("erec_g", "help", {{"pod", "pod-0"}}).set(1);
    r.gauge("erec_g", "help", {{"pod", "pod-1"}}).set(2);
    r.remove("erec_g", {{"pod", "pod-0"}});
    EXPECT_DOUBLE_EQ(r.value("erec_g", {{"pod", "pod-0"}}), 0.0);
    EXPECT_DOUBLE_EQ(r.value("erec_g", {{"pod", "pod-1"}}), 2.0);
    r.remove("erec_g", {{"pod", "pod-9"}}); // absent: no-op
    r.remove("erec_nope", {});              // absent family: no-op
}

TEST(ExportTest, EscapesLabelValues)
{
    EXPECT_EQ(escapeLabelValue("plain"), "plain");
    EXPECT_EQ(escapeLabelValue("a\\b"), "a\\\\b");
    EXPECT_EQ(escapeLabelValue("a\"b"), "a\\\"b");
    EXPECT_EQ(escapeLabelValue("a\nb"), "a\\nb");
}

TEST(ExportTest, PrometheusTextRendersFamiliesAndLabels)
{
    Registry r;
    r.counter("erec_done_total", "Work done.", {{"deployment", "d\"1"}})
        .inc(3);
    r.gauge("erec_depth", "Queue depth.").set(7);
    const std::string text = toPrometheusText(r);
    EXPECT_NE(text.find("# HELP erec_done_total Work done.\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE erec_done_total counter\n"),
              std::string::npos);
    EXPECT_NE(
        text.find("erec_done_total{deployment=\"d\\\"1\"} 3\n"),
        std::string::npos);
    EXPECT_NE(text.find("# TYPE erec_depth gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("erec_depth 7\n"), std::string::npos);
}

TEST(ExportTest, PrometheusHistogramIsCumulativeWithInf)
{
    Registry r;
    Histogram &h =
        r.histogram("erec_lat_ms", "Latency.", {1.0, 2.0});
    h.observe(0.5);
    h.observe(1.5);
    h.observe(99.0);
    const std::string text = toPrometheusText(r);
    EXPECT_NE(text.find("erec_lat_ms_bucket{le=\"1\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("erec_lat_ms_bucket{le=\"2\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("erec_lat_ms_bucket{le=\"+Inf\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("erec_lat_ms_count 3\n"), std::string::npos);
    EXPECT_NE(text.find("erec_lat_ms_sum 101\n"), std::string::npos);
}

TEST(ExportTest, SkipsFamiliesWithNoChildren)
{
    // remove() can empty a family (last pod gauge gone); the export
    // must not emit a header-only family, which promcheck rejects.
    Registry r;
    r.gauge("erec_pod_busy", "Busy.", {{"pod", "p0"}}).set(1);
    r.counter("erec_done_total", "Done.").inc();
    r.remove("erec_pod_busy", {{"pod", "p0"}});
    const std::string text = toPrometheusText(r);
    EXPECT_EQ(text.find("erec_pod_busy"), std::string::npos);
    EXPECT_NE(text.find("erec_done_total"), std::string::npos);
}

TEST(ExportTest, TraceJsonLinesRoundTrip)
{
    // Trace 8 completed; trace 9 is a lost query: its root never
    // closed and it has no other spans.
    const std::uint64_t queue_id = (kRootSpanId << 8) | 1;
    std::vector<SpanEvent> events = {
        spanEvent(8, "query", 1000, 5000),
        spanEvent(8, "dense/queue", 1000, 1200, queue_id, kRootSpanId),
        spanEvent(8, "sparse/t0-s1/service", 1200, 4000,
                  (kRootSpanId << 8) | 2, kRootSpanId),
        spanEvent(9, "query", 2000, kOpenSpanEnd),
    };
    SpanEvent link = spanEvent(kBatchTraceBit | 3, "batch/member", 1100,
                               1100);
    link.kind = EventKind::Link;
    link.arg = 8;
    events.push_back(link);

    const std::string text = jsonLines(events);
    const auto back = readTraceJsonLines(text);
    ASSERT_EQ(back.size(), 5u);
    EXPECT_EQ(back[0].traceId, 8u);
    EXPECT_EQ(back[0].startUs, 1000);
    EXPECT_EQ(back[0].endUs, 5000);
    EXPECT_EQ(spanName(back[1].name), "dense/queue");
    EXPECT_EQ(back[1].startUs, 1000);
    EXPECT_EQ(back[1].endUs, 1200);
    EXPECT_EQ(spanName(back[2].name), "sparse/t0-s1/service");
    EXPECT_EQ(back[3].endUs, kOpenSpanEnd);
    // Batch trace ids use the top bit; links keep kind and member.
    EXPECT_EQ(back[4].traceId, kBatchTraceBit | 3);
    EXPECT_EQ(back[4].kind, EventKind::Link);
    EXPECT_EQ(back[4].arg, 8u);

    // Writing the parsed events again is byte-identical.
    EXPECT_EQ(jsonLines(back), text);
}

TEST(ExportTest, CausalTraceRoundTripKeepsIdsAndValidates)
{
    const std::vector<SpanEvent> events = {
        spanEvent(5, "query", 1000, 9000),
        spanEvent(5, "rpc/t0-s0/request", 1500, 8000,
                  (kRootSpanId << 8) | 3, kRootSpanId),
    };

    // The causal fields survive the JSON-lines round trip.
    const auto back = readTraceJsonLines(jsonLines(events));
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].traceId, 5u);
    EXPECT_EQ(back[0].spanId, kRootSpanId);
    EXPECT_EQ(back[0].parentId, 0u);
    EXPECT_EQ(back[1].spanId, (kRootSpanId << 8) | 3);
    EXPECT_EQ(back[1].parentId, kRootSpanId);

    // And the round-tripped trace satisfies erec_trace/v2.
    EXPECT_EQ(validateTraceSchema(back), std::vector<std::string>{});
}

TEST(TraceSchemaTest, FlagsStructuralViolations)
{
    std::vector<SpanEvent> events = {
        // Completion (50) precedes arrival (100): not the open marker.
        spanEvent(1, "query", 100, 50),
        spanEvent(1, "backwards", 400, 300, (kRootSpanId << 8) | 1,
                  kRootSpanId),
        spanEvent(1, "late", 500, 600, (kRootSpanId << 8) | 2,
                  kRootSpanId),
        // Parent never recorded.
        spanEvent(1, "orphan", 100, 100, 99, 42),
    };
    EXPECT_GE(validateTraceSchema(events).size(), 4u);

    // An open root is the lost/in-flight marker and is valid; it is
    // the only span allowed to be open.
    events[0].endUs = kOpenSpanEnd;
    events.erase(events.begin() + 1); // Drop end < start.
    events.pop_back();                // Drop the orphan.
    EXPECT_EQ(validateTraceSchema(events), std::vector<std::string>{});
    events[1].endUs = kOpenSpanEnd;
    EXPECT_EQ(validateTraceSchema(events).size(), 1u);

    // Links must name a member and hang off a span of their trace.
    SpanEvent link = spanEvent(kBatchTraceBit | 1, "batch/member", 0, 0);
    link.kind = EventKind::Link;
    EXPECT_EQ(validateTraceSchema({link}).size(), 2u);
}

TEST(ExportTest, TraceReaderRejectsMalformedInput)
{
    const std::string good =
        jsonLines({spanEvent(1, "query", 0, 1)});
    EXPECT_NO_THROW(readTraceJsonLines(good));
    EXPECT_THROW(readTraceJsonLines("not json\n"), ConfigError);
    EXPECT_THROW(readTraceJsonLines("{\"trace_id\":1\n"), ConfigError);
    EXPECT_THROW(readTraceJsonLines("{\"mystery_key\":1}\n"),
                 ConfigError);
    // Every key is required, exactly once.
    std::string missing = good;
    missing.replace(missing.find(",\"arg\":0"), 8, "");
    EXPECT_THROW(readTraceJsonLines(missing), ConfigError);
    std::string dup = good;
    dup.insert(dup.find(",\"arg\""), ",\"arg\":0");
    EXPECT_THROW(readTraceJsonLines(dup), ConfigError);
    // Ids are unsigned 64-bit: overflow and negatives are errors.
    std::string big = good;
    big.replace(big.find("\"trace_id\":1"), 12,
                "\"trace_id\":18446744073709551616");
    EXPECT_THROW(readTraceJsonLines(big), ConfigError);
    std::string neg = good;
    neg.replace(neg.find("\"trace_id\":1"), 12, "\"trace_id\":-1");
    EXPECT_THROW(readTraceJsonLines(neg), ConfigError);
}

TEST(ExportTest, JsonEscapesSpanNames)
{
    const std::string text =
        jsonLines({spanEvent(1, "we\"ird\\name", 0, 1)});
    EXPECT_NE(text.find("we\\\"ird\\\\name"), std::string::npos);
    const auto back = readTraceJsonLines(text);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(spanName(back[0].name), "we\"ird\\name");
}

} // namespace
} // namespace erec::obs
