/**
 * @file
 * Workload accel-sim: one VGG-E first-five-conv image per iteration
 * through BaselineAccelerator and FusedAccelerator, at the DSP budgets
 * table2_vgg uses (2880 baseline, 2987 fused). It is the only workload
 * that runs FusedExecutor's pyramid BL/BT-reuse dataflow and the only
 * one that runs the sim/ cycle and DRAM models, whose output is the
 * paper's headline result (Table II).
 *
 * Host times (latency_p50_ms, throughput_ops, accel.*) are what the
 * simulator takes on the host; simulated quantities (sim.*) are what
 * the modelled FPGA design would do, and repeat exactly: the output
 * check fails any image whose simulated counts differ from the
 * recorded ones.
 */

#include <cinttypes>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "accel/baseline_accel.hh"
#include "accel/fused_accel.hh"
#include "bench.hh"
#include "common/units.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "obs/metrics.hh"

using namespace flcnn;

namespace perfbench {
namespace {

constexpr int kInputs = 2;  //!< distinct images, cycled
/** Images a timed run simulates at least: at 1-2 s each, a short run
 *  alone would give too few for a median that repeats. */
constexpr int kMinImages = 15;
constexpr int kBaselineDsp = 2880;
constexpr int kFusedDsp = 2987;

/** Simulated counts of one image; shape-only, so seed-independent. */
struct SimCounts
{
    int64_t fusedFmapBytes, fusedMakespan;
    int fusedBram, fusedDsp;
    int64_t baseFmapBytes, baseCycles;
    int baseBram, baseDsp;

    friend bool operator==(const SimCounts &, const SimCounts &) = default;
};

// Recorded on the repository's models (table2_vgg prints the same).
constexpr SimCounts kRecorded = {3813376, 10360456, 1604, 2925,
                                 77088960, 10950912, 1320, 2880};

/** The paper's Table II. */
constexpr double kPaperFusedFmapMb = 3.64, kPaperBaseFmapMb = 77.14;
constexpr double kPaperFusedKcycles = 11665, kPaperBaseKcycles = 10951;
constexpr double kPaperFusedBram = 2509, kPaperBaseBram = 2085;

struct State
{
    Network net = vggEPrefix(5);
    int last = net.numLayers() - 1;
    NetworkWeights weights;
    std::vector<Tensor> inputs;
    BaselineConfig bcfg;
    std::unique_ptr<BaselineAccelerator> baseline;
    std::unique_ptr<FusedAccelerator> fused;

    explicit State(uint64_t seed)
        : weights(seededWeights(net, subSeed(seed, 1))),
          inputs(seededInputs(net, kInputs, subSeed(seed, 2))),
          bcfg(optimizeBaseline(net, kBaselineDsp))
    {
        bcfg.tr = bcfg.tc = 16;  // buffer-sized tiles, as table2_vgg
        baseline = std::make_unique<BaselineAccelerator>(net, weights, bcfg);
        fused = std::make_unique<FusedAccelerator>(
            net, weights, 0, last,
            balanceFusedPipeline(net, 0, last, kFusedDsp));
        (void)baseline->run(inputs[0]);  // warm-up: packs weights
        (void)fused->run(inputs[0]);
    }
};

SimCounts
countsOf(const State &s, const AccelStats &bs, const AccelStats &fs)
{
    const int64_t wb = s.net.weightBytesInRange(0, s.last);
    return {fs.totalDramBytes() - wb, fs.makespanCycles, fs.bram, fs.dsp,
            bs.totalDramBytes() - wb, bs.computeCycles,  bs.bram, bs.dsp};
}

struct Iterations
{
    std::vector<double> both, base, fused;  //!< host seconds per image
    SimCounts counts{};
};

/** One image per iteration through both accelerators, for @p seconds
 *  and at least @p min_images images. */
Iterations
simLoop(State &s, const std::vector<Tensor> &refs, double seconds,
        int min_images, const RunOptions &opt, Outcome &out, Tracer *tr)
{
    Iterations it;
    const double t_end = now() + seconds;
    for (int i = 0; now() < t_end || i < min_images; i++) {
        const size_t k = static_cast<size_t>(i % kInputs);
        Scope op(tr, "bench.image");
        AccelStats bs, fs;
        Tensor bout, fout;
        const double t0 = now();
        {
            Scope sp(tr, "accel.baseline.run");
            bout = s.baseline->run(s.inputs[k], &bs);
        }
        const double t1 = now();
        {
            Scope sp(tr, "accel.fused.run");
            fout = s.fused->run(s.inputs[k], &fs);
        }
        const double t2 = now();
        it.both.push_back(t2 - t0);
        it.base.push_back(t1 - t0);
        it.fused.push_back(t2 - t1);

        Scope check(tr, "bench.check");
        if (opt.corrupt && i == 2)
            flipOneBit(fout);
        it.counts = countsOf(s, bs, fs);
        out.ledger.check(bitEqual(bout, refs[k]) && bitEqual(fout, refs[k]) &&
                             it.counts == kRecorded,
                         "accel image " + std::to_string(i) +
                             ": output differs from runRange or simulated "
                             "counts differ from the recorded ones");
    }
    return it;
}

double
errPct(double sim, double paper)
{
    return 100.0 * (sim / paper - 1.0);
}

/** Simulated values beside the paper's Table II, with the error. */
void
printPaperTable(const SimCounts &c)
{
    const double ff = toMiB(c.fusedFmapBytes), bf = toMiB(c.baseFmapBytes);
    const double fk = static_cast<double>(c.fusedMakespan) / 1e3;
    const double bk = static_cast<double>(c.baseCycles) / 1e3;
    std::printf("simulated vs paper Table II (error = simulated / paper - 1)\n"
                "  fmap MB/image   fused %8.2f (paper %8.2f, %+6.1f%%)  "
                "baseline %8.2f (paper %8.2f, %+6.1f%%)\n"
                "  kcycles         fused %8.0f (paper %8.0f, %+6.1f%%)  "
                "baseline %8.0f (paper %8.0f, %+6.1f%%)\n"
                "  BRAM18K         fused %8d (paper %8.0f, %+6.1f%%)  "
                "baseline %8d (paper %8.0f, %+6.1f%%)\n",
                ff, kPaperFusedFmapMb, errPct(ff, kPaperFusedFmapMb), bf,
                kPaperBaseFmapMb, errPct(bf, kPaperBaseFmapMb), fk,
                kPaperFusedKcycles, errPct(fk, kPaperFusedKcycles), bk,
                kPaperBaseKcycles, errPct(bk, kPaperBaseKcycles),
                c.fusedBram, kPaperFusedBram,
                errPct(c.fusedBram, kPaperFusedBram), c.baseBram,
                kPaperBaseBram, errPct(c.baseBram, kPaperBaseBram));
    std::printf("  recorded counts: {%" PRId64 ", %" PRId64 ", %d, %d, %" PRId64
                ", %" PRId64 ", %d, %d}\n",
                c.fusedFmapBytes, c.fusedMakespan, c.fusedBram, c.fusedDsp,
                c.baseFmapBytes, c.baseCycles, c.baseBram, c.baseDsp);
}

bool
isConv(const Network &net, const std::string &name)
{
    for (const LayerSpec &l : net.layers()) {
        if (l.name == name)
            return l.kind == LayerKind::Conv;
    }
    return false;
}

/** Per-layer metrics from the fused accelerator's metrics registry. */
void
reportLayers(const State &s, const Iterations &it, const MetricsRegistry &freg,
             Outcome &out)
{
    MetricSink &m = out.metrics;
    const double runs = static_cast<double>(it.fused.size());
    m.set("accel.baseline.run_ms", median(it.base) * 1e3, "ms");
    m.set("accel.fused.run_ms", median(it.fused) * 1e3, "ms");
    for (const std::string &scope : freg.scopes()) {
        // "layer:<i>:<name>" (executor) and "stage:<i>:<name>" (pipeline)
        const size_t colon = scope.rfind(':');
        const std::string name = scope.substr(colon + 1);
        if (scope.rfind("layer:", 0) == 0) {
            const double dram = static_cast<double>(
                freg.counter(scope, "dram_read_bytes") +
                freg.counter(scope, "dram_write_bytes"));
            if (isConv(s.net, name))
                m.set("accel.fused." + name + ".wall_ms",
                      freg.gauge(scope, "wall_seconds") / runs * 1e3, "ms");
            if (dram > 0)
                m.set("sim.fused." + name + ".dram_kb", dram / runs / 1024.0,
                      "KiB");
        } else if (scope.rfind("stage:", 0) == 0) {
            // Pad and ReLU stages are absorbed and never busy.
            const int64_t busy = freg.counter(scope, "busy_cycles");
            if (busy > 0)
                m.set("sim.fused." + name + ".busy_kcycles",
                      static_cast<double>(busy) / runs / 1e3, "kcycles");
        }
    }
    const SimCounts &c = it.counts;
    const double bf = toMiB(c.baseFmapBytes);
    const double bk = static_cast<double>(c.baseCycles) / 1e3;
    m.set("sim.fused.fmap_mb", toMiB(c.fusedFmapBytes), "MB");
    m.set("sim.fused.makespan_kcycles",
          static_cast<double>(c.fusedMakespan) / 1e3, "kcycles");
    m.set("sim.baseline.fmap_mb", bf, "MB");
    m.set("sim.baseline.makespan_kcycles", bk, "kcycles");
    m.set("sim.fused.bram", c.fusedBram, "BRAM18K");
    m.set("sim.baseline.bram", c.baseBram, "BRAM18K");
    m.set("sim.fused.dsp", c.fusedDsp, "DSP48E1");
    const struct
    {
        const char *name;
        double sim, paper;
    } vs_paper[] = {
        {"sim.fused.fmap_abs_err_pct", toMiB(c.fusedFmapBytes),
         kPaperFusedFmapMb},
        {"sim.baseline.fmap_abs_err_pct", bf, kPaperBaseFmapMb},
        {"sim.fused.makespan_abs_err_pct",
         static_cast<double>(c.fusedMakespan) / 1e3, kPaperFusedKcycles},
        {"sim.baseline.makespan_abs_err_pct", bk, kPaperBaseKcycles},
        {"sim.fused.bram_abs_err_pct", static_cast<double>(c.fusedBram),
         kPaperFusedBram},
        {"sim.baseline.bram_abs_err_pct", static_cast<double>(c.baseBram),
         kPaperBaseBram},
    };
    for (const auto &v : vs_paper)
        m.set(v.name, std::fabs(errPct(v.sim, v.paper)), "%");
}

} // namespace

void
runAccelSim(const RunOptions &opt, Outcome &out)
{
    double setup_s = 0.0;
    auto s = timedSetup<std::unique_ptr<State>>(
        setupReps(opt), [&] { return std::make_unique<State>(opt.seed); },
        &setup_s);
    std::vector<Tensor> refs;
    for (const Tensor &x : s->inputs)
        refs.push_back(runRange(s->net, s->weights, x, 0, s->last));

    if (!opt.trace) {
        const Iterations it =
            simLoop(*s, refs, opt.seconds, kMinImages, opt, out, nullptr);
        std::printf("%zu images: host ms per image min %.1f, p50 %.1f, max "
                    "%.1f (baseline p50 %.1f, fused p50 %.1f)\n",
                    it.both.size(), quantile(it.both, 0) * 1e3,
                    median(it.both) * 1e3, quantile(it.both, 1) * 1e3,
                    median(it.base) * 1e3, median(it.fused) * 1e3);
        printPaperTable(it.counts);
        out.metrics.set("setup_s", setup_s, "s");
        out.metrics.set("peak_rss_mb", peakRssMb(), "MB");
        out.metrics.set("latency_p50_ms", median(it.both) * 1e3, "ms");
        out.metrics.set("throughput_ops", opsPerSecond(it.both), "ops/s");
        return;
    }

    const Iterations base = simLoop(*s, refs, opt.seconds / 2, 1, opt,
                                    out, nullptr);
    MetricsRegistry freg;
    s->fused->setMetrics(&freg);
    const Iterations it = simLoop(*s, refs, opt.seconds / 2, 1, opt,
                                  out, &out.tracer);
    s->fused->setMetrics(nullptr);
    out.loopSpans = out.tracer.size();
    out.tracedOps = static_cast<int64_t>(it.both.size());
    out.untracedOp = median(base.both);
    out.tracedOp = median(it.both);
    printPaperTable(it.counts);
    reportLayers(*s, it, freg, out);
}

} // namespace perfbench
