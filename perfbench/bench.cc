/**
 * @file
 * Benchmark binary entry point and shared helpers.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    [--spans PATH] [--corrupt]
 *
 * Prints a human-readable report, then as its last line one JSON
 * object {"correct", "attempted", "failed", "metrics"}. With --trace 0
 * the metrics are the workload's end-to-end metrics (untraced), the
 * same names for every workload. With --trace 1 every workload is
 * run, the named one first, each for a quarter of --seconds, so that
 * every layer is measured: the metrics are all per-layer metrics, the
 * per-layer self times and the tracing overhead of each workload, and
 * the spans are written to --spans PATH. Exit status is 0 when every
 * check passed.
 */

#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"

namespace perfbench {

void
Ledger::fail(const std::string &why)
{
    nAttempted++;
    nFailed++;
    if (nFailed <= 5)
        std::printf("CHECK FAILED: %s\n", why.c_str());
}

void
Ledger::invariant(bool holds, const std::string &why)
{
    if (holds)
        return;
    invariantsHold = false;
    std::printf("INVARIANT FAILED: %s\n", why.c_str());
}

void
Ledger::merge(const Ledger &other)
{
    nAttempted += other.nAttempted;
    nFailed += other.nFailed;
    invariantsHold &= other.invariantsHold;
}

void
MetricSink::set(const std::string &name, double value, const char *unit)
{
    if (!std::isfinite(value))
        flcnn::fatal("metric %s is not finite", name.c_str());
    for (Entry &e : entries) {
        if (e.name == name)
            flcnn::fatal("metric %s set twice", name.c_str());
    }
    entries.push_back({name, value, unit});
}

void
MetricSink::merge(const MetricSink &other)
{
    for (const Entry &e : other.entries)
        set(e.name, e.value, e.unit.c_str());
}

std::string
MetricSink::json() const
{
    std::string s = "{";
    char buf[64];
    for (size_t i = 0; i < entries.size(); i++) {
        std::snprintf(buf, sizeof buf, "%.17g", entries[i].value);
        s += (i ? ", \"" : "\"") + entries[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + entries[i].unit + "\"}";
    }
    return s + "}";
}

void
MetricSink::printTable() const
{
    for (const Entry &e : entries)
        std::printf("  %-40s %14.6g %s\n", e.name.c_str(), e.value,
                    e.unit.c_str());
}

flcnn::NetworkWeights
seededWeights(const flcnn::Network &net, uint64_t seed)
{
    flcnn::Rng rng(seed);
    return flcnn::NetworkWeights(net, rng);
}

std::vector<flcnn::Tensor>
seededInputs(const flcnn::Network &net, int n, uint64_t seed)
{
    flcnn::Rng rng(seed);
    std::vector<flcnn::Tensor> v;
    for (int i = 0; i < n; i++) {
        v.emplace_back(net.inputShape());
        v.back().fillRandom(rng);
    }
    return v;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool
bitEqual(const flcnn::Tensor &a, const flcnn::Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.elems()) * sizeof(float)) ==
               0;
}

void
flipOneBit(flcnn::Tensor &t)
{
    uint32_t bits;
    std::memcpy(&bits, t.data(), sizeof bits);
    bits ^= 1u;
    std::memcpy(t.data(), &bits, sizeof bits);
}

int
Tracer::add(const std::string &name, double start, double end, int parent,
            int64_t request)
{
    spans.push_back({name, start, end, parent, request});
    return static_cast<int>(spans.size()) - 1;
}

int
Tracer::begin(const std::string &name)
{
    const int id = add(name, now(), 0.0, open.empty() ? -1 : open.back());
    open.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    spans[static_cast<size_t>(id)].end = now();
    FLCNN_ASSERT(!open.empty() && open.back() == id, "unbalanced span");
    open.pop_back();
}

std::vector<std::pair<std::string, double>>
Tracer::selfSecondsByLayer(size_t n) const
{
    n = std::min(n, spans.size());
    std::vector<std::vector<std::pair<double, double>>> kids(n);
    for (size_t i = 0; i < n; i++) {
        if (spans[i].parent >= 0)
            kids[static_cast<size_t>(spans[i].parent)].push_back(
                {spans[i].start, spans[i].end});
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < n; i++) {
        const Span &s = spans[i];
        // Union of the children's intervals, clipped to the span.
        std::vector<std::pair<double, double>> &k = kids[i];
        std::sort(k.begin(), k.end());
        double covered = 0.0, reach = s.start;
        for (const auto &[a, b] : k) {
            const double lo = std::max(a, reach);
            const double hi = std::min(b, s.end);
            if (hi > lo)
                covered += hi - lo;
            reach = std::max(reach, std::min(b, s.end));
        }
        const std::string layer = s.name.substr(0, s.name.find('.'));
        self[layer] += std::max(0.0, (s.end - s.start) - covered);
    }
    return {self.begin(), self.end()};
}

void
Tracer::append(const Tracer &other)
{
    FLCNN_ASSERT(other.open.empty(), "appending a tracer with open spans");
    const int base = static_cast<int>(spans.size());
    for (Span s : other.spans) {
        if (s.parent >= 0)
            s.parent += base;
        spans.push_back(std::move(s));
    }
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"schema\": \"perfbench-spans-v1\", \"spans\": [");
    for (size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s\n {\"id\": %zu, \"name\": \"%s\", \"start_us\": "
                     "%.3f, \"end_us\": %.3f, \"parent\": %d, "
                     "\"request\": %lld}",
                     i ? "," : "", i, s.name.c_str(), s.start * 1e6,
                     s.end * 1e6, s.parent,
                     static_cast<long long>(s.request));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

void
reportTrace(Outcome &out, const std::string &workload)
{
    const double ops = static_cast<double>(std::max<int64_t>(
        out.tracedOps, 1));
    const std::string prefix = "trace." + workload + ".";
    for (const auto &[layer, secs] :
         out.tracer.selfSecondsByLayer(out.loopSpans))
        out.metrics.set(prefix + layer + ".self_ms", secs * 1e3 / ops,
                        "ms");
    out.metrics.set(prefix + "overhead_pct",
                    100.0 * (out.tracedOp / out.untracedOp - 1.0), "%");
}

namespace {

using WorkloadFn = void (*)(const RunOptions &, Outcome &);

const std::pair<const char *, WorkloadFn> kWorkloads[] = {
    {"vgg5-image", runVgg5Image},
    {"serve-mixed", runServeMixed},
    {"dse-vgge", runDseVgge},
    {"accel-sim", runAccelSim},
};

WorkloadFn
findWorkload(const std::string &name)
{
    for (const auto &[n, fn] : kWorkloads) {
        if (name == n)
            return fn;
    }
    flcnn::fatal("unknown workload '%s' (want vgg5-image | serve-mixed | "
                 "dse-vgge | accel-sim)",
                 name.c_str());
}

/**
 * The traced run: every workload, the named one first, each for a
 * quarter of the run, so that every layer's per-layer metrics are
 * measured whatever the named workload is.
 */
void
runTraced(const RunOptions &opt, Outcome &total)
{
    std::vector<std::string> order = {opt.workload};
    for (const auto &[n, fn] : kWorkloads) {
        if (opt.workload != n)
            order.push_back(n);
    }
    RunOptions part = opt;
    part.seconds = opt.seconds / static_cast<double>(order.size());
    for (const std::string &wl : order) {
        std::printf("-- traced %s, %.1f s\n", wl.c_str(), part.seconds);
        part.workload = wl;
        Outcome out;
        findWorkload(wl)(part, out);
        reportTrace(out, wl);
        total.ledger.merge(out.ledger);
        total.metrics.merge(out.metrics);
        total.tracer.append(out.tracer);
    }
}

} // namespace

} // namespace perfbench

using namespace perfbench;

int
main(int argc, char **argv)
{
    RunOptions opt;
    opt.threads = flcnn::ThreadPool::cpuCount();
    std::string spans_path;
    for (int a = 1; a < argc; a++) {
        if (std::strcmp(argv[a], "--workload") == 0)
            opt.workload = flcnn::argValue(argc, argv, &a);
        else if (std::strcmp(argv[a], "--seed") == 0)
            opt.seed = static_cast<uint64_t>(flcnn::parseIntArg(
                "--seed", flcnn::argValue(argc, argv, &a), 0, INT64_MAX));
        else if (std::strcmp(argv[a], "--seconds") == 0)
            opt.seconds = flcnn::parseFloatArg(
                "--seconds", flcnn::argValue(argc, argv, &a), 0.1, 600.0);
        else if (std::strcmp(argv[a], "--trace") == 0)
            opt.trace = flcnn::parseIntArgI(
                            "--trace", flcnn::argValue(argc, argv, &a), 0,
                            1) == 1;
        else if (std::strcmp(argv[a], "--spans") == 0)
            spans_path = flcnn::argValue(argc, argv, &a);
        else if (std::strcmp(argv[a], "--corrupt") == 0)
            opt.corrupt = true;
        else
            flcnn::fatal("unknown argument '%s'", argv[a]);
    }
    flcnn::ThreadPool::setGlobalThreads(opt.threads);

    std::printf("== perfbench %s: seed %llu, %.1f s, %s, %d threads ==\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? "traced" : "untraced", opt.threads);
    Outcome out;
    if (!opt.trace) {
        findWorkload(opt.workload)(opt, out);
    } else {
        findWorkload(opt.workload);  // reject a bad name before any work
        runTraced(opt, out);
        if (!spans_path.empty()) {
            if (!out.tracer.write(spans_path))
                flcnn::fatal("cannot write %s", spans_path.c_str());
            std::printf("wrote %zu spans to %s\n", out.tracer.size(),
                        spans_path.c_str());
        }
    }
    std::printf("\n%lld attempted, %lld failed\n",
                static_cast<long long>(out.ledger.attempted()),
                static_cast<long long>(out.ledger.failed()));
    out.metrics.printTable();
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                out.ledger.correct() ? "true" : "false",
                static_cast<long long>(out.ledger.attempted()),
                static_cast<long long>(out.ledger.failed()),
                out.metrics.json().c_str());
    return out.ledger.correct() ? 0 : 1;
}
