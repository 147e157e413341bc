/**
 * @file
 * Shared pieces of the benchmark binary: the run options, the
 * operations ledger, the metric sink that becomes the binary's last
 * output line, sample statistics, and the span tracer the traced mode
 * records from outside the library calls.
 *
 * Everything here is the benchmark's own code. It measures the
 * repository's libraries only by timing calls into their public
 * functions and by reading counters they already expose.
 */

#ifndef FLCNN_PERFBENCH_BENCH_HH
#define FLCNN_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/network.hh"
#include "nn/weights.hh"
#include "tensor/tensor.hh"

namespace perfbench {

/** Command-line options of one benchmark run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Self-test: flip one bit of one output before it is checked, so
     *  the run must report exactly one failed operation. */
    bool corrupt = false;
    int threads = 1;  //!< nproc: intra-op threads, serve workers, clients
};

/** Attempted / failed operations of one run. */
class Ledger
{
  public:
    void ok() { nAttempted++; }
    void fail(const std::string &why);
    /** Record one operation whose check passed when @p passed. */
    void check(bool passed, const std::string &why)
    {
        if (passed)
            ok();
        else
            fail(why);
    }
    /** A check that is not itself an operation (a setup or
     *  consistency check): failing it makes the run incorrect. */
    void invariant(bool holds, const std::string &why);

    int64_t attempted() const { return nAttempted; }
    int64_t failed() const { return nFailed; }
    bool correct() const { return nFailed == 0 && invariantsHold; }

    /** Add @p other's operations and invariants to this ledger. */
    void merge(const Ledger &other);

  private:
    int64_t nAttempted = 0;
    int64_t nFailed = 0;
    bool invariantsHold = true;
};

/** Named metrics in emission order; the last output line. */
class MetricSink
{
  public:
    /** Record @p value (must be finite) under @p name. */
    void set(const std::string &name, double value, const char *unit);
    /** Record every metric of @p other, in its order. */
    void merge(const MetricSink &other);
    std::string json() const;
    void printTable() const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries;
};

/** Steady-clock seconds (the same base as serve's monotonicSeconds). */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Seed of independent stream @p stream of the run seed (splitmix64),
 *  so weights, inputs and samples never share a generator. */
inline uint64_t
subSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed * 0x100000001b3ull + stream + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Seeded synthetic weights for @p net. */
flcnn::NetworkWeights seededWeights(const flcnn::Network &net,
                                    uint64_t seed);

/** @p n seeded random images of @p net's input shape. */
std::vector<flcnn::Tensor> seededInputs(const flcnn::Network &net, int n,
                                        uint64_t seed);

/** Linear-interpolated quantile of @p v (q in [0, 1]); NaN if empty. */
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Operations per second of the time spent in them: @p op_seconds
 *  holds each operation's time, so the output checks between
 *  operations are not counted. */
inline double
opsPerSecond(const std::vector<double> &op_seconds)
{
    double sum = 0.0;
    for (double t : op_seconds)
        sum += t;
    return static_cast<double>(op_seconds.size()) / sum;
}

/** Median of @p reps timed calls of @p fn, in seconds. */
template <typename Fn>
double
medianSeconds(int reps, Fn &&fn)
{
    std::vector<double> t;
    for (int r = 0; r < reps; r++) {
        const double t0 = now();
        fn();
        t.push_back(now() - t0);
    }
    return median(t);
}

/** Peak resident set size of this process, in MB (2^20 bytes). */
double peakRssMb();

/** Same shape and the same bits in every element. */
bool bitEqual(const flcnn::Tensor &a, const flcnn::Tensor &b);

/** Flip the lowest mantissa bit of element 0 (the corruption self-test). */
void flipOneBit(flcnn::Tensor &t);

/**
 * Span recorder for the traced mode. A span has a name whose prefix up
 * to the first '.' names the layer it is charged to ("fusion.execute"
 * -> fusion), a start, an end, a parent span and an optional request
 * id. Spans are kept in memory and written once at the end. Not
 * thread-safe: every span is recorded from the binary's main thread
 * (serve spans are assembled after the fact from the request records).
 */
class Tracer
{
  public:
    /** Record a finished span; returns its id. */
    int add(const std::string &name, double start, double end,
            int parent = -1, int64_t request = -1);

    /** Open a span under the innermost open one; close with end(). */
    int begin(const std::string &name);
    void end(int id);

    /** Self time per layer, in seconds, over the first @p n spans: a
     *  span's duration minus the part its children cover. */
    std::vector<std::pair<std::string, double>>
    selfSecondsByLayer(size_t n) const;

    /** Append @p other's spans, renumbering their parents. */
    void append(const Tracer &other);

    /** Write every span as JSON (schema "perfbench-spans-v1"). */
    bool write(const std::string &path) const;

    size_t size() const { return spans.size(); }

  private:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
        int64_t request = -1;
    };
    std::vector<Span> spans;
    std::vector<int> open;
};

/** RAII span on an optional tracer (no-op when @p t is null). */
class Scope
{
  public:
    Scope(Tracer *t, const std::string &name)
        : tr(t), id(t ? t->begin(name) : -1)
    {
    }
    ~Scope()
    {
        if (tr)
            tr->end(id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tr;
    int id;
};

/** Everything one workload reports. */
struct Outcome
{
    Ledger ledger;
    MetricSink metrics;
    Tracer tracer;          //!< filled by the traced mode only
    double untracedOp = 0;  //!< primary op time, untraced half (s)
    double tracedOp = 0;    //!< the same, traced half (s)
    int64_t tracedOps = 0;  //!< operations in the traced half
    size_t loopSpans = 0;   //!< spans of the traced half (the first ones)
};

/**
 * Time @p setup @p reps times from scratch and keep the last result:
 * the workload's set-up cost is the median. Earlier states are
 * destroyed before the next set-up begins.
 */
template <typename State, typename Fn>
State
timedSetup(int reps, Fn &&setup, double *median_s)
{
    std::vector<double> t;
    State st;
    for (int r = 0; r < reps; r++) {
        st = State();
        const double t0 = now();
        st = setup();
        t.push_back(now() - t0);
    }
    *median_s = median(t);
    return st;
}

/** Add workload @p workload's self-time and tracing-overhead
 *  per-layer metrics ("trace.<workload>.<layer>.self_ms" and
 *  "trace.<workload>.overhead_pct"). */
void reportTrace(Outcome &out, const std::string &workload);

void runVgg5Image(const RunOptions &opt, Outcome &out);
void runServeMixed(const RunOptions &opt, Outcome &out);
void runDseVgge(const RunOptions &opt, Outcome &out);
void runAccelSim(const RunOptions &opt, Outcome &out);

/** Set-up repetitions of a timed run: setup_s is their median. A
 *  traced run sets each workload up once. */
constexpr int kSetupReps = 5;
inline int
setupReps(const RunOptions &opt)
{
    return opt.trace ? 1 : kSetupReps;
}

} // namespace perfbench

#endif // FLCNN_PERFBENCH_BENCH_HH
