/**
 * @file
 * ServerStats: the serving runtime's observability layer.
 *
 * Latency is recorded into HDR-style log-linear histograms: values (in
 * microseconds) land in one of 64 linear sub-buckets per power of two,
 * bounding the relative quantile error at ~1.6% while keeping the
 * histogram a fixed 2.5k-counter array — no allocation on the record
 * path, deterministic quantiles, O(1) record. Three histograms split
 * every completed request into the decomposition that matters for a
 * batched server: total latency, queue wait (admission -> compute
 * start), and compute.
 *
 * The stats object is shared by the submit path, the batcher, and
 * every worker; recording takes one short mutex. Two export paths
 * bridge into the PR 4 observability layer:
 *
 *  - registerInto(MetricsRegistry&) publishes counters and percentile
 *    gauges under "serve:*" scopes, so --metrics-json reports carry
 *    the serving breakdown next to the accelerator scopes;
 *  - appendRequestTrace(ChromeTrace&) renders the bounded per-request
 *    span log as Chrome trace tracks: compute spans per worker, and
 *    queue-wait spans packed onto overlap-free lanes.
 *
 * Invariant the CI smoke asserts: the total-latency histogram count
 * equals the completed-request counter — every completion is recorded
 * exactly once.
 */

#ifndef FLCNN_SERVE_SERVER_STATS_HH
#define FLCNN_SERVE_SERVER_STATS_HH

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "serve/request.hh"

namespace flcnn {

class ChromeTrace;
class MetricsRegistry;

/**
 * Fixed-size log-linear (HDR-style) histogram over positive values.
 * The value domain is microseconds when used for latency, but the
 * histogram itself is unit-agnostic.
 */
class LatencyHistogram
{
  public:
    /** 64 linear sub-buckets per octave, 40 octaves: 1 us resolution
     *  at the bottom, range to ~2^45 us (about a year), <= 1/64
     *  relative error. */
    static constexpr int kSubBits = 6;
    static constexpr int kSub = 1 << kSubBits;
    static constexpr int kOctaves = 40;
    static constexpr int kBuckets = kOctaves * kSub;

    /** Record one value (values < 1 clamp to 1, huge values to the
     *  top bucket). */
    void record(double value);

    int64_t count() const { return total; }
    double sum() const { return valueSum; }
    double min() const { return total ? minSeen : 0.0; }
    double max() const { return total ? maxSeen : 0.0; }
    double mean() const { return total ? valueSum / total : 0.0; }

    /**
     * Value at quantile @p q in [0, 1]: the upper edge of the first
     * bucket whose cumulative count reaches ceil(q * count), clamped
     * into [min(), max()] so sub-resolution recordings never report a
     * bucket edge the histogram never saw. NaN when empty — an empty
     * histogram has no quantiles, and callers (e.g. metric exporters)
     * must check count() first. Deterministic (pure function of the
     * recorded multiset).
     */
    double quantile(double q) const;

    void merge(const LatencyHistogram &other);
    void clear();

    /** Bucket index of @p value (exposed for tests). */
    static int bucketIndex(double value);

    /** Upper edge of bucket @p idx (exposed for tests). */
    static double bucketUpper(int idx);

  private:
    std::array<int64_t, kBuckets> buckets{};
    int64_t total = 0;
    double valueSum = 0.0;
    double minSeen = 0.0;
    double maxSeen = 0.0;
};

/** One request's life, kept for trace rendering. */
struct RequestSpan
{
    int64_t id = -1;
    int model = 0;
    int worker = -1;
    int64_t batch = -1;
    double tSubmit = 0.0;  //!< monotonicSeconds() at admission
    double tStart = 0.0;   //!< compute start
    double tEnd = 0.0;     //!< compute end
};

/** Thread-safe statistics hub for one InferenceServer. */
class ServerStats
{
  public:
    /** @param max_spans per-request span log cap (overflow counted,
     *  never silently dropped). The log is reserved up front so the
     *  record path never reallocates. */
    explicit ServerStats(size_t max_spans = 100000);

    /** Declare the registered models (name + SLO class per index).
     *  Enables per-model and per-class latency breakdowns; call
     *  before traffic (not thread-safe against recording). */
    void setModels(const std::vector<std::string> &names,
                   const std::vector<SloClass> &classes);

    /** Presize the per-worker tallies (avoids resizes on the record
     *  path). Recording still auto-grows for unseen worker ids. */
    void setWorkers(int n);

    // -- recording (called by server / batcher / workers) ------------
    void onSubmitted();
    void onAdmitted();
    void onRejected();
    void onExpired();
    void onCancelled();
    void onShed();
    void onInvalid();
    void onBatch(int model, int size);
    /** One executed request: updates the three latency histograms, the
     *  completed counter, per-worker tallies, and the span log. */
    void onCompleted(const RequestSpan &span);

    // -- reading ------------------------------------------------------
    int64_t submitted() const;
    int64_t admitted() const;
    int64_t rejected() const;
    int64_t expired() const;
    int64_t cancelled() const;
    int64_t shed() const;
    int64_t invalid() const;
    int64_t completed() const;
    int64_t batches() const;
    double maxBatchSeen() const;
    double meanBatch() const;

    /** Copies of the histograms (values in microseconds). */
    LatencyHistogram totalLatency() const;
    LatencyHistogram queueWait() const;
    LatencyHistogram computeTime() const;

    /** Per-model total-latency histogram (empty histogram when the
     *  model was never declared via setModels or has no traffic). */
    LatencyHistogram modelLatency(int model) const;

    /** Per-class total-latency histogram (see setModels). */
    LatencyHistogram classLatency(SloClass cls) const;

    /** Exponential moving average of one request's compute seconds
     *  for @p cls (0 before the first completion) — the load-shedding
     *  predicate's cost estimate. */
    double classComputeEmaSeconds(SloClass cls) const;

    /** Span log snapshot (bounded by max_spans) + drop count. */
    std::vector<RequestSpan> spans() const;
    int64_t droppedSpans() const;

    /**
     * Publish into @p reg: scope "serve:queue" (submitted / admitted /
     * rejected / expired / cancelled / shed / invalid counters),
     * "serve:batch" (batches, mean/max size gauges),
     * "serve:latency:<kind>" for total / queue_wait / compute
     * (completed count as a counter; p50/p95/p99/max/mean microsecond
     * gauges), and
     * "serve:worker:<w>" per-worker completed counters and busy-time
     * gauges.
     */
    void registerInto(MetricsRegistry &reg) const;

    /**
     * Render the span log onto @p tr: per-worker compute-span tracks
     * on @p pid, and queue-wait spans on @p queue_pid packed onto
     * overlap-free lanes (first-fit by start time). Timestamps are
     * rebased so the earliest submit is ts 0.
     */
    void appendRequestTrace(ChromeTrace &tr, int pid,
                            int queue_pid) const;

  private:
    mutable std::mutex mu;
    int64_t nSubmitted = 0;
    int64_t nAdmitted = 0;
    int64_t nRejected = 0;
    int64_t nExpired = 0;
    int64_t nCancelled = 0;
    int64_t nShed = 0;
    int64_t nInvalid = 0;
    int64_t nCompleted = 0;
    int64_t nBatches = 0;
    int64_t batchItems = 0;
    int maxBatch = 0;
    LatencyHistogram histTotal;   //!< microseconds
    LatencyHistogram histQueue;
    LatencyHistogram histCompute;
    std::vector<std::string> modelNames;       //!< set by setModels
    std::vector<SloClass> modelClasses;
    std::vector<LatencyHistogram> modelTotal;  //!< per-model latency
    std::array<LatencyHistogram, kNumSloClasses> classTotal;
    std::array<double, kNumSloClasses> classEma{};  //!< compute s
    std::vector<int64_t> workerCompleted;
    std::vector<double> workerBusySeconds;
    std::vector<RequestSpan> spanLog;
    size_t maxSpans;
    int64_t nDroppedSpans = 0;
};

} // namespace flcnn

#endif // FLCNN_SERVE_SERVER_STATS_HH
