/** @file LatencyHistogram quantile math and the ServerStats hub. */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "obs/metrics.hh"
#include "obs/trace_event.hh"
#include "serve/server_stats.hh"

namespace flcnn {
namespace {

TEST(LatencyHistogram, BucketIndexIsMonotonic)
{
    int prev = -1;
    for (double v = 1.0; v < 1e9; v *= 1.37) {
        const int idx = LatencyHistogram::bucketIndex(v);
        EXPECT_GE(idx, prev);
        prev = idx;
        // The value lands at or below its bucket's upper edge.
        EXPECT_LE(v, LatencyHistogram::bucketUpper(idx));
    }
}

TEST(LatencyHistogram, RelativeErrorBounded)
{
    // Log-linear with 64 sub-buckets: the bucket upper edge
    // overestimates a recorded value by at most 1/64 (~1.6%).
    for (double v : {1.5, 63.0, 64.0, 100.0, 1000.5, 123456.0, 9.9e7}) {
        LatencyHistogram h;
        h.record(v);
        const double q = h.quantile(0.5);
        EXPECT_GE(q, v * (1.0 - 1e-12));
        EXPECT_LE(q, v * (1.0 + 1.0 / 64 + 1e-12));
    }
}

TEST(LatencyHistogram, SmallCountsWithinOneMicrosecond)
{
    // Values below 64 us land in width-1 buckets; quantiles report
    // the bucket's upper edge (value + 1), clamped to the maximum
    // seen — a conservative overestimate that never under-reports a
    // tail latency.
    LatencyHistogram h;
    for (double v : {3.0, 1.0, 2.0, 2.0, 5.0})
        h.record(v);
    EXPECT_EQ(h.count(), 5);
    EXPECT_DOUBLE_EQ(h.sum(), 13.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 5.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);  // rank 1 is value 1
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);  // rank 3 is value 2
    EXPECT_DOUBLE_EQ(h.quantile(0.8), 4.0);  // rank 4 is value 3
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);  // clamped to max()
}

TEST(LatencyHistogram, EmptyHistogramHasNoQuantiles)
{
    // No recorded values means no quantiles: NaN, never a plausible
    // latency like 0 that a dashboard would read as a perfect p99.
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0);
    for (double q : {0.0, 0.5, 0.95, 0.99, 1.0})
        EXPECT_TRUE(std::isnan(h.quantile(q))) << "q=" << q;
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogram, SingleValueReportsItselfAtEveryQuantile)
{
    LatencyHistogram h;
    h.record(7.0);
    EXPECT_EQ(h.count(), 1);
    // One value below 64 us: its bucket's upper edge (8) clamps to
    // the recorded maximum, so every quantile is exactly the value.
    for (double q : {0.0, 0.5, 0.95, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(h.quantile(q), 7.0) << "q=" << q;
}

TEST(LatencyHistogram, AllUnderflowStaysInRecordedRange)
{
    // Every value below the 1 us resolution floor: all land in the
    // first occupied bucket, whose 2 us upper edge must not leak out
    // as a quantile for a histogram that never saw 1 us.
    LatencyHistogram h;
    h.record(0.2);
    h.record(0.4);
    h.record(0.6);
    EXPECT_EQ(h.count(), 3);
    for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
        const double v = h.quantile(q);
        EXPECT_GE(v, 0.2) << "q=" << q;
        EXPECT_LE(v, 0.6) << "q=" << q;
    }
}

TEST(LatencyHistogram, QuantileClampsToMaxSeen)
{
    LatencyHistogram h;
    h.record(1000.0);  // bucket upper edge is above 1000
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

TEST(LatencyHistogram, ClampsTinyAndHugeValues)
{
    LatencyHistogram h;
    h.record(0.25);   // clamps to 1
    h.record(1e300);  // clamps to the top bucket
    EXPECT_EQ(h.count(), 2);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);  // upper edge of bucket 1
    EXPECT_GT(h.quantile(1.0), 0.0);
}

TEST(LatencyHistogram, MergeMatchesCombinedRecording)
{
    LatencyHistogram a, b, both;
    for (int i = 1; i <= 100; i++) {
        const double v = i * 17.3;
        (i % 2 ? a : b).record(v);
        both.record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_DOUBLE_EQ(a.sum(), both.sum());
    for (double q : {0.1, 0.5, 0.9, 0.99})
        EXPECT_DOUBLE_EQ(a.quantile(q), both.quantile(q));
}

void
fillTraffic(ServerStats &st)
{
    for (int i = 0; i < 10; i++)
        st.onSubmitted();
    for (int i = 0; i < 8; i++)
        st.onAdmitted();
    st.onRejected();
    st.onRejected();
    st.onBatch(0, 3);
    st.onBatch(0, 5);
    for (int i = 0; i < 8; i++) {
        RequestSpan s;
        s.id = i;
        s.model = 0;
        s.worker = i % 2;
        s.batch = i / 5;
        s.tSubmit = 0.001 * i;
        s.tStart = s.tSubmit + 0.002;
        s.tEnd = s.tStart + 0.010;
        st.onCompleted(s);
    }
}

TEST(ServerStats, CountersAndHistogramsAgree)
{
    ServerStats st;
    fillTraffic(st);
    EXPECT_EQ(st.submitted(), 10);
    EXPECT_EQ(st.admitted(), 8);
    EXPECT_EQ(st.rejected(), 2);
    EXPECT_EQ(st.completed(), 8);
    EXPECT_EQ(st.batches(), 2);
    EXPECT_DOUBLE_EQ(st.meanBatch(), 4.0);
    EXPECT_DOUBLE_EQ(st.maxBatchSeen(), 5.0);

    // The invariant the CI smoke asserts: one histogram entry per
    // completion, in every decomposition.
    EXPECT_EQ(st.totalLatency().count(), st.completed());
    EXPECT_EQ(st.queueWait().count(), st.completed());
    EXPECT_EQ(st.computeTime().count(), st.completed());
    EXPECT_EQ(static_cast<int64_t>(st.spans().size()), st.completed());

    // 2 ms queue wait + 10 ms compute, recorded in microseconds.
    EXPECT_NEAR(st.queueWait().mean(), 2000.0, 2000.0 / 64 + 1.0);
    EXPECT_NEAR(st.computeTime().mean(), 10000.0, 10000.0 / 64 + 1.0);
    EXPECT_NEAR(st.totalLatency().mean(), 12000.0, 12000.0 / 64 + 1.0);
}

TEST(ServerStats, RegisterIntoPublishesServeScopes)
{
    ServerStats st;
    fillTraffic(st);
    MetricsRegistry reg;
    st.registerInto(reg);

    EXPECT_EQ(reg.counter("serve:queue", "submitted"), 10);
    EXPECT_EQ(reg.counter("serve:queue", "admitted"), 8);
    EXPECT_EQ(reg.counter("serve:queue", "rejected"), 2);
    EXPECT_EQ(reg.counter("serve:batch", "batches"), 2);
    EXPECT_EQ(reg.counter("serve:latency:total", "count"), 8);
    EXPECT_EQ(reg.counter("serve:latency:queue_wait", "count"), 8);
    EXPECT_EQ(reg.counter("serve:latency:compute", "count"), 8);
    EXPECT_GT(reg.gauge("serve:latency:total", "p99_us"), 0.0);
    EXPECT_GE(reg.gauge("serve:latency:total", "p99_us"),
              reg.gauge("serve:latency:total", "p50_us"));
    // Per-worker completions sum to the total.
    EXPECT_EQ(reg.counter("serve:worker:0", "completed") +
                  reg.counter("serve:worker:1", "completed"),
              8);
}

TEST(ServerStats, NoPercentileGaugesBeforeFirstCompletion)
{
    // A server that has not completed a request publishes the zero
    // counts but no latency gauges — neither 0 nor NaN p50/p95/p99.
    ServerStats st;
    st.onSubmitted();
    st.onAdmitted();
    MetricsRegistry reg;
    st.registerInto(reg);
    EXPECT_EQ(reg.counter("serve:latency:total", "count"), 0);
    EXPECT_EQ(reg.counter("serve:latency:compute", "count"), 0);
    for (const Metric &m : reg.items()) {
        if (m.scope.rfind("serve:latency:", 0) == 0) {
            EXPECT_EQ(m.name, "count") << m.scope << ":" << m.name;
        }
    }
}

TEST(ServerStats, SpanLogIsBounded)
{
    ServerStats st(/*max_spans=*/4);
    for (int i = 0; i < 10; i++) {
        RequestSpan s;
        s.id = i;
        s.tSubmit = 0.001 * i;
        s.tStart = s.tSubmit + 0.001;
        s.tEnd = s.tStart + 0.001;
        st.onCompleted(s);
    }
    EXPECT_EQ(st.spans().size(), 4u);
    EXPECT_EQ(st.droppedSpans(), 6);
    EXPECT_EQ(st.completed(), 10);  // counting never saturates
}

TEST(ServerStats, AppendRequestTraceEmitsSpans)
{
    ServerStats st;
    fillTraffic(st);
    ChromeTrace tr;
    st.appendRequestTrace(tr, 7, 8);
    const std::string json = tr.json();
    // 8 compute spans + 8 queue-wait spans, plus metadata.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("req 0"), std::string::npos);
    EXPECT_NE(json.find("(queued)"), std::string::npos);
}

} // namespace
} // namespace flcnn
