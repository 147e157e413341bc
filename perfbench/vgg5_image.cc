/**
 * @file
 * Workload vgg5-image: one client in a closed loop sends one 3x224x224
 * fp32 image at a time through a compiled LineBuffer FusionPlan of
 * VGG-E's first five convolutions (the paper's Table II group) with
 * nproc intra-op threads. The fp32 3x3 kernels, the line-buffer
 * executor and the thread pool do almost all of the work; serve, dse
 * and accel do none. This is the per-image latency behind the paper's
 * Sec. VI-C CPU claim.
 */

#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "fusion/fusion_plan.hh"
#include "fusion/line_buffer_executor.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"

using namespace flcnn;

namespace perfbench {
namespace {

constexpr int kInputs = 4;        //!< distinct images, cycled
constexpr int kMinSamples = 100;  //!< >= 10 samples beyond p90
constexpr int kTracedMinSamples = 10;  //!< the traced run's untraced half
constexpr int kProbeReps = 5;

struct State
{
    Network net = vggEPrefix(5);
    int last = net.numLayers() - 1;
    NetworkWeights weights;
    std::vector<Tensor> inputs;
    FusionPlan plan{net, weights};
    double compileMs = 0.0;

    explicit State(uint64_t seed)
        : weights(seededWeights(net, subSeed(seed, 1))),
          inputs(seededInputs(net, kInputs, subSeed(seed, 2)))
    {
        plan.addRange(0, last);
        PlanCompileOptions copt;
        copt.engine = PlanEngine::LineBuffer;
        const CompileStatus st = plan.compile(copt);
        if (st != CompileStatus::Ok)
            fatal("vgg5 plan: %s", plan.diagnostic().c_str());
        compileMs = plan.compileSeconds() * 1e3;
        (void)plan.execute(inputs[0]);  // warm-up run
    }
};

/** Closed loop of execute() calls; returns per-image latencies. */
std::vector<double>
imageLoop(State &s, const std::vector<Tensor> &refs, double seconds,
          int min_samples, const RunOptions &opt, Outcome &out, Tracer *tr)
{
    std::vector<double> lat;
    const double t_end = now() + seconds;
    for (int i = 0; now() < t_end || static_cast<int>(lat.size()) <
                                          min_samples;
         i++) {
        const int k = i % kInputs;
        Scope image(tr, "bench.image");
        Tensor y;
        {
            Scope ex(tr, "fusion.execute");
            const double t0 = now();
            y = s.plan.execute(s.inputs[static_cast<size_t>(k)]);
            lat.push_back(now() - t0);
        }
        Scope check(tr, "bench.check");
        if (opt.corrupt && i == 2)
            flipOneBit(y);
        out.ledger.check(bitEqual(y, refs[static_cast<size_t>(k)]),
                         "vgg5 image " + std::to_string(i) +
                             " differs from runRange");
    }
    return lat;
}

/** Per-layer probes: single-layer runRange, full reference, 1-thread
 *  plan execution, line-buffer capacity. */
void
probeLayers(State &s, const std::vector<Tensor> &refs, double lb_exec_s,
            double compile_ms, Outcome &out)
{
    Tracer *tr = &out.tracer;
    MetricSink &m = out.metrics;
    const std::vector<std::string> probed = {
        "conv1_1", "conv1_2", "pool1", "conv2_1", "conv2_2", "pool2",
        "conv3_1"};
    Tensor cur = s.inputs[0];
    for (int li = 0; li <= s.last; li++) {
        const LayerSpec &spec = s.net.layer(li);
        Tensor next;
        bool is_probed = false;
        for (const std::string &p : probed)
            is_probed |= spec.name == p;
        if (is_probed) {
            Scope sp(tr, "nn.runRange." + spec.name);
            const double secs = medianSeconds(kProbeReps, [&] {
                next = runRange(s.net, s.weights, cur, li, li);
            });
            m.set("nn." + spec.name + ".ms", secs * 1e3, "ms");
            if (spec.name.rfind("conv", 0) == 0) {
                const OpCount ops = layerOpCount(spec, cur.shape());
                m.set("nn." + spec.name + ".gmacs",
                      static_cast<double>(ops.mults) / secs / 1e9,
                      "GMAC/s");
            }
        } else {
            next = runRange(s.net, s.weights, cur, li, li);
        }
        cur = std::move(next);
    }
    out.ledger.invariant(bitEqual(cur, refs[0]),
                         "layer-by-layer probe chain != runRange");

    double ref_s;
    {
        Scope sp(tr, "nn.runRange.full");
        ref_s = medianSeconds(kProbeReps, [&] {
            (void)runRange(s.net, s.weights, s.inputs[0], 0, s.last);
        });
    }
    double t1_s;
    {
        Scope sp(tr, "fusion.execute.t1");
        ThreadPool::InlineScope one_thread;
        t1_s = medianSeconds(kProbeReps,
                             [&] { (void)s.plan.execute(s.inputs[0]); });
    }
    const double macs = static_cast<double>(
        rangeOpCount(s.net, 0, s.last).mults);
    m.set("fusion.linebuffer.exec_ms", lb_exec_s * 1e3, "ms");
    m.set("fusion.linebuffer.exec_ms.t1", t1_s * 1e3, "ms");
    m.set("fusion.linebuffer.thread_speedup", t1_s / lb_exec_s, "x");
    m.set("fusion.linebuffer.gmacs", macs / lb_exec_s / 1e9, "GMAC/s");
    m.set("fusion.reference.exec_ms", ref_s * 1e3, "ms");
    m.set("fusion.speedup_vs_reference", ref_s / lb_exec_s, "x");
    m.set("fusion.linebuffer.buffer_kb",
          static_cast<double>(
              LineBufferExecutor(s.net, s.weights, 0, s.last)
                  .bufferBytes()) /
              1024.0,
          "KiB");
    m.set("fusion.compile_ms", compile_ms, "ms");
}

} // namespace

void
runVgg5Image(const RunOptions &opt, Outcome &out)
{
    double setup_s = 0.0;
    std::vector<double> compile_ms;
    auto s = timedSetup<std::unique_ptr<State>>(
        setupReps(opt),
        [&] {
            auto st = std::make_unique<State>(opt.seed);
            compile_ms.push_back(st->compileMs);
            return st;
        },
        &setup_s);

    // The check's reference, computed once, outside every timing.
    std::vector<Tensor> refs;
    for (const Tensor &x : s->inputs)
        refs.push_back(runRange(s->net, s->weights, x, 0, s->last));

    if (!opt.trace) {
        const std::vector<double> lat =
            imageLoop(*s, refs, opt.seconds, kMinSamples, opt, out, nullptr);
        // p90 is printed, not gated: see the README ("Noise and bounds").
        std::printf("%zu images, p50 %.2f ms, p90 %.2f ms\n", lat.size(),
                    median(lat) * 1e3, quantile(lat, 0.9) * 1e3);
        out.metrics.set("setup_s", setup_s, "s");
        out.metrics.set("peak_rss_mb", peakRssMb(), "MB");
        out.metrics.set("latency_p50_ms", median(lat) * 1e3, "ms");
        out.metrics.set("throughput_ops", opsPerSecond(lat), "ops/s");
        return;
    }

    const std::vector<double> base = imageLoop(
        *s, refs, opt.seconds / 2, kTracedMinSamples, opt, out, nullptr);
    const std::vector<double> traced = imageLoop(
        *s, refs, opt.seconds / 2, 0, opt, out, &out.tracer);
    out.loopSpans = out.tracer.size();
    out.untracedOp = median(base);
    out.tracedOp = median(traced);
    out.tracedOps = static_cast<int64_t>(traced.size());
    out.metrics.set("fusion.linebuffer.exec_ms_p90",
                    quantile(base, 0.9) * 1e3, "ms");
    probeLayers(*s, refs, median(base), median(compile_ms), out);
}

} // namespace perfbench
