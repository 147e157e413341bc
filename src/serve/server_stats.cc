#include "serve/server_stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "obs/trace_event.hh"

namespace flcnn {

// ---------------------------------------------------------------------
// LatencyHistogram

int
LatencyHistogram::bucketIndex(double value)
{
    uint64_t u = value < 1.0 ? 1
                 : value >= 9e18
                     ? static_cast<uint64_t>(9e18)
                     : static_cast<uint64_t>(value);
    const int e = 63 - std::countl_zero(u);  // floor(log2(u))
    int idx;
    if (e < kSubBits) {
        idx = static_cast<int>(u);  // 1-us-wide buckets at the bottom
    } else {
        // Top kSubBits bits select the linear sub-bucket inside the
        // octave: relative error bounded by 2^-kSubBits.
        const int sub = static_cast<int>(u >> (e - kSubBits));
        idx = (e - kSubBits + 1) * kSub + (sub - kSub);
    }
    return std::min(idx, kBuckets - 1);
}

double
LatencyHistogram::bucketUpper(int idx)
{
    FLCNN_ASSERT(idx >= 0 && idx < kBuckets, "bucket index range");
    if (idx < kSub)
        return idx + 1;
    const int block = idx / kSub;       // >= 1
    const int sub = idx % kSub;
    const double scale = std::ldexp(1.0, block - 1);
    return (kSub + sub + 1) * scale;
}

void
LatencyHistogram::record(double value)
{
    buckets[static_cast<size_t>(bucketIndex(value))]++;
    if (total == 0) {
        minSeen = maxSeen = value;
    } else {
        minSeen = std::min(minSeen, value);
        maxSeen = std::max(maxSeen, value);
    }
    total++;
    valueSum += value;
}

double
LatencyHistogram::quantile(double q) const
{
    // An empty histogram has no quantiles. NaN (not 0) so a forgotten
    // emptiness check is visible instead of reading as a great p99;
    // exporters skip the gauges entirely (registerHistogram below).
    if (total == 0)
        return std::numeric_limits<double>::quiet_NaN();
    q = std::clamp(q, 0.0, 1.0);
    const int64_t rank =
        std::max<int64_t>(1, static_cast<int64_t>(std::ceil(q * total)));
    int64_t seen = 0;
    for (int i = 0; i < kBuckets; i++) {
        seen += buckets[static_cast<size_t>(i)];
        if (seen >= rank) {
            // Clamp the bucket's upper edge into the recorded range:
            // sub-resolution values (< 1 us) all land in the first
            // occupied bucket, whose 2 us edge would otherwise be
            // reported for a histogram that never saw 1 us.
            return std::clamp(bucketUpper(i), minSeen, maxSeen);
        }
    }
    return maxSeen;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    if (other.total == 0)
        return;
    for (int i = 0; i < kBuckets; i++)
        buckets[static_cast<size_t>(i)] +=
            other.buckets[static_cast<size_t>(i)];
    if (total == 0) {
        minSeen = other.minSeen;
        maxSeen = other.maxSeen;
    } else {
        minSeen = std::min(minSeen, other.minSeen);
        maxSeen = std::max(maxSeen, other.maxSeen);
    }
    total += other.total;
    valueSum += other.valueSum;
}

void
LatencyHistogram::clear()
{
    buckets.fill(0);
    total = 0;
    valueSum = minSeen = maxSeen = 0.0;
}

// ---------------------------------------------------------------------
// ServerStats

ServerStats::ServerStats(size_t max_spans) : maxSpans(max_spans)
{
    // One up-front reservation keeps onCompleted() reallocation-free
    // for the life of the log.
    spanLog.reserve(maxSpans);
}

void
ServerStats::setModels(const std::vector<std::string> &names,
                       const std::vector<SloClass> &classes)
{
    FLCNN_ASSERT(names.size() == classes.size(),
                 "one class per model name");
    std::lock_guard<std::mutex> lk(mu);
    modelNames = names;
    modelClasses = classes;
    modelTotal.assign(names.size(), LatencyHistogram());
}

void
ServerStats::setWorkers(int n)
{
    std::lock_guard<std::mutex> lk(mu);
    if (n > static_cast<int>(workerCompleted.size())) {
        workerCompleted.resize(static_cast<size_t>(n), 0);
        workerBusySeconds.resize(static_cast<size_t>(n), 0.0);
    }
}

void
ServerStats::onSubmitted()
{
    std::lock_guard<std::mutex> lk(mu);
    nSubmitted++;
}

void
ServerStats::onAdmitted()
{
    std::lock_guard<std::mutex> lk(mu);
    nAdmitted++;
}

void
ServerStats::onRejected()
{
    std::lock_guard<std::mutex> lk(mu);
    nRejected++;
}

void
ServerStats::onExpired()
{
    std::lock_guard<std::mutex> lk(mu);
    nExpired++;
}

void
ServerStats::onCancelled()
{
    std::lock_guard<std::mutex> lk(mu);
    nCancelled++;
}

void
ServerStats::onShed()
{
    std::lock_guard<std::mutex> lk(mu);
    nShed++;
}

void
ServerStats::onInvalid()
{
    std::lock_guard<std::mutex> lk(mu);
    nInvalid++;
}

void
ServerStats::onBatch(int model, int size)
{
    (void)model;
    std::lock_guard<std::mutex> lk(mu);
    nBatches++;
    batchItems += size;
    maxBatch = std::max(maxBatch, size);
}

void
ServerStats::onCompleted(const RequestSpan &span)
{
    std::lock_guard<std::mutex> lk(mu);
    nCompleted++;
    histTotal.record((span.tEnd - span.tSubmit) * 1e6);
    histQueue.record((span.tStart - span.tSubmit) * 1e6);
    histCompute.record((span.tEnd - span.tStart) * 1e6);
    if (span.model >= 0 &&
        static_cast<size_t>(span.model) < modelTotal.size()) {
        modelTotal[static_cast<size_t>(span.model)].record(
            (span.tEnd - span.tSubmit) * 1e6);
        const int cls = static_cast<int>(
            modelClasses[static_cast<size_t>(span.model)]);
        classTotal[static_cast<size_t>(cls)].record(
            (span.tEnd - span.tSubmit) * 1e6);
        // EMA of one request's compute time, alpha 0.2: reacts within
        // a few batches yet smooths per-batch jitter — the cost basis
        // of the shed predicate.
        const double c = span.tEnd - span.tStart;
        double &ema = classEma[static_cast<size_t>(cls)];
        ema = ema == 0.0 ? c : 0.8 * ema + 0.2 * c;
    }
    if (span.worker >= 0) {
        const size_t w = static_cast<size_t>(span.worker);
        if (workerCompleted.size() <= w) {
            workerCompleted.resize(w + 1, 0);
            workerBusySeconds.resize(w + 1, 0.0);
        }
        workerCompleted[w]++;
        workerBusySeconds[w] += span.tEnd - span.tStart;
    }
    if (spanLog.size() < maxSpans)
        spanLog.push_back(span);
    else
        nDroppedSpans++;
}

#define FLCNN_STATS_GET(fn, field)                                       \
    int64_t ServerStats::fn() const                                      \
    {                                                                    \
        std::lock_guard<std::mutex> lk(mu);                              \
        return field;                                                    \
    }

FLCNN_STATS_GET(submitted, nSubmitted)
FLCNN_STATS_GET(admitted, nAdmitted)
FLCNN_STATS_GET(rejected, nRejected)
FLCNN_STATS_GET(expired, nExpired)
FLCNN_STATS_GET(cancelled, nCancelled)
FLCNN_STATS_GET(shed, nShed)
FLCNN_STATS_GET(invalid, nInvalid)
FLCNN_STATS_GET(completed, nCompleted)
FLCNN_STATS_GET(batches, nBatches)

#undef FLCNN_STATS_GET

double
ServerStats::maxBatchSeen() const
{
    std::lock_guard<std::mutex> lk(mu);
    return maxBatch;
}

double
ServerStats::meanBatch() const
{
    std::lock_guard<std::mutex> lk(mu);
    return nBatches ? static_cast<double>(batchItems) / nBatches : 0.0;
}

LatencyHistogram
ServerStats::totalLatency() const
{
    std::lock_guard<std::mutex> lk(mu);
    return histTotal;
}

LatencyHistogram
ServerStats::queueWait() const
{
    std::lock_guard<std::mutex> lk(mu);
    return histQueue;
}

LatencyHistogram
ServerStats::computeTime() const
{
    std::lock_guard<std::mutex> lk(mu);
    return histCompute;
}

LatencyHistogram
ServerStats::modelLatency(int model) const
{
    std::lock_guard<std::mutex> lk(mu);
    if (model < 0 || static_cast<size_t>(model) >= modelTotal.size())
        return LatencyHistogram();
    return modelTotal[static_cast<size_t>(model)];
}

LatencyHistogram
ServerStats::classLatency(SloClass cls) const
{
    std::lock_guard<std::mutex> lk(mu);
    return classTotal[static_cast<size_t>(static_cast<int>(cls))];
}

double
ServerStats::classComputeEmaSeconds(SloClass cls) const
{
    std::lock_guard<std::mutex> lk(mu);
    return classEma[static_cast<size_t>(static_cast<int>(cls))];
}

std::vector<RequestSpan>
ServerStats::spans() const
{
    std::lock_guard<std::mutex> lk(mu);
    return spanLog;
}

int64_t
ServerStats::droppedSpans() const
{
    std::lock_guard<std::mutex> lk(mu);
    return nDroppedSpans;
}

namespace {

void
registerHistogram(MetricsRegistry &reg, const std::string &scope,
                  const LatencyHistogram &h)
{
    reg.addCounter(scope, "count", h.count());
    // Before the first completion there are no latencies: publishing
    // 0 (or NaN) percentile gauges would read as a perfect server, so
    // publish nothing but the zero count.
    if (h.count() == 0)
        return;
    reg.setGauge(scope, "p50_us", h.quantile(0.50));
    reg.setGauge(scope, "p95_us", h.quantile(0.95));
    reg.setGauge(scope, "p99_us", h.quantile(0.99));
    reg.setGauge(scope, "max_us", h.max());
    reg.setGauge(scope, "mean_us", h.mean());
}

} // namespace

void
ServerStats::registerInto(MetricsRegistry &reg) const
{
    std::lock_guard<std::mutex> lk(mu);
    reg.addCounter("serve:queue", "submitted", nSubmitted);
    reg.addCounter("serve:queue", "admitted", nAdmitted);
    reg.addCounter("serve:queue", "rejected", nRejected);
    reg.addCounter("serve:queue", "expired", nExpired);
    reg.addCounter("serve:queue", "cancelled", nCancelled);
    reg.addCounter("serve:queue", "shed", nShed);
    reg.addCounter("serve:queue", "invalid", nInvalid);
    reg.addCounter("serve:queue", "completed", nCompleted);
    reg.addCounter("serve:batch", "batches", nBatches);
    reg.setGauge("serve:batch", "mean_size",
                 nBatches ? static_cast<double>(batchItems) / nBatches
                          : 0.0);
    reg.setGauge("serve:batch", "max_size", maxBatch);
    registerHistogram(reg, "serve:latency:total", histTotal);
    registerHistogram(reg, "serve:latency:queue_wait", histQueue);
    registerHistogram(reg, "serve:latency:compute", histCompute);
    for (size_t m = 0; m < modelTotal.size(); m++) {
        registerHistogram(reg, "serve:model:" + modelNames[m],
                          modelTotal[m]);
    }
    for (int c = 0; c < kNumSloClasses; c++) {
        const LatencyHistogram &h =
            classTotal[static_cast<size_t>(c)];
        if (h.count() == 0)
            continue;
        registerHistogram(
            reg,
            std::string("serve:class:") +
                sloClassName(static_cast<SloClass>(c)),
            h);
    }
    for (size_t w = 0; w < workerCompleted.size(); w++) {
        const std::string scope = "serve:worker:" + std::to_string(w);
        reg.addCounter(scope, "completed", workerCompleted[w]);
        reg.setGauge(scope, "busy_seconds", workerBusySeconds[w]);
    }
}

void
ServerStats::appendRequestTrace(ChromeTrace &tr, int pid,
                                int queue_pid) const
{
    std::vector<RequestSpan> log = spans();
    if (log.empty())
        return;
    double base = log.front().tSubmit;
    for (const RequestSpan &s : log)
        base = std::min(base, s.tSubmit);

    std::vector<TimedSpan> compute;
    std::vector<TimedSpan> queue;
    compute.reserve(log.size());
    queue.reserve(log.size());
    for (const RequestSpan &s : log) {
        const std::string name = "req " + std::to_string(s.id);
        std::vector<TraceArg> args{
            {"request", argI(s.id)},
            {"model", argI(s.model)},
            {"batch", argI(s.batch)},
            {"queue_wait_us", argF((s.tStart - s.tSubmit) * 1e6)},
        };
        compute.push_back({std::max(s.worker, 0), name,
                           (s.tStart - base) * 1e6,
                           (s.tEnd - base) * 1e6, args});
        queue.push_back({-1, name + " (queued)",
                         (s.tSubmit - base) * 1e6,
                         (s.tStart - base) * 1e6, std::move(args)});
    }
    appendSpanLanes(tr, pid, "serve workers", "worker", compute);
    appendSpanLanes(tr, queue_pid, "serve queue", "queue lane", queue);
    const int64_t dropped = droppedSpans();
    if (dropped > 0)
        warn("request trace dropped %lld spans beyond the span cap",
             static_cast<long long>(dropped));
}

} // namespace flcnn
