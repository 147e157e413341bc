/**
 * @file
 * Workload dse-vgge: repeated chain sweeps (the paper's 2^20
 * partitions) and LoopTree sweeps (default point budget) of the full
 * VGG-E network through dse::runSweep; one operation is one sweep of
 * each. model/ and dse/ do all the work
 * and no tensor is touched: a pricing or pruning change shows here and
 * nowhere else, and a kernel change should show no change here.
 */

#include <algorithm>
#include <cinttypes>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/rng.hh"
#include "dse/pricer.hh"
#include "dse/sweep.hh"
#include "nn/zoo.hh"

using namespace flcnn;
using namespace flcnn::dse;

namespace perfbench {
namespace {

// Digests of the sweeps' outputs on the repository's cost model. The
// DSE is shape-only, so they hold for every seed and thread count; a
// change that moves a front must update them (and say why).
constexpr uint64_t kChainDigest = 0x4b0a715dab87867bull;
constexpr uint64_t kLoopTreeDigest = 0xddd11bef6cc3bef2ull;

constexpr int kPriceSample = 256;  //!< neighbor schedules priced
constexpr int kProbeReps = 5;

/** FNV-1a over 64-bit words. */
struct Digest
{
    uint64_t h = 0xcbf29ce484222325ull;
    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; i++) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    void
    add(const Network &net, const std::vector<SweepPoint> &pts)
    {
        add(pts.size());
        for (const SweepPoint &p : pts) {
            const ScheduleCost &c = p.cost;
            add(scheduleHash(net, p.schedule));
            for (int64_t v : {c.storageBytes, c.workingBytes,
                              c.transferBytes, c.extraOps, c.latencyCycles,
                              c.energyPj, int64_t{c.approxGroups}})
                add(static_cast<uint64_t>(v));
        }
    }
};

uint64_t
digest(const Network &net, const SweepResult &r)
{
    Digest d;
    d.add(static_cast<uint64_t>(r.pointsVisited));
    d.add(static_cast<uint64_t>(r.frontierCapUsed));
    d.add(net, r.front);
    d.add(net, r.chainFront);
    d.add(r.legacyFront.size());
    for (const DesignPoint &p : r.legacyFront) {
        d.add(static_cast<uint64_t>(p.storageBytes));
        d.add(static_cast<uint64_t>(p.transferBytes));
        d.add(static_cast<uint64_t>(p.extraOps));
    }
    return d.h;
}

/** Every chain-front point is weakly dominated by a surfaced point. */
bool
coversChainFront(const SweepResult &surface,
                 const std::vector<SweepPoint> &chain_front)
{
    for (const SweepPoint &c : chain_front) {
        bool covered = false;
        for (const SweepPoint &f : surface.front) {
            covered |= f.cost.latencyCycles <= c.cost.latencyCycles &&
                       f.cost.energyPj <= c.cost.energyPj &&
                       f.cost.bufferBytes() <= c.cost.bufferBytes();
        }
        if (!covered)
            return false;
    }
    return !chain_front.empty();
}

bool
sameCost(const ScheduleCost &a, const ScheduleCost &b)
{
    return a.storageBytes == b.storageBytes &&
           a.workingBytes == b.workingBytes &&
           a.transferBytes == b.transferBytes && a.extraOps == b.extraOps &&
           a.latencyCycles == b.latencyCycles && a.energyPj == b.energyPj &&
           a.approxGroups == b.approxGroups;
}

struct State
{
    Network net = vggE();
    SweepOptions chainOpt;
    SweepOptions treeOpt;
    SweepResult chain;  //!< warm-up sweeps: the front the checks use
    SweepResult tree;

    State()
    {
        treeOpt.space = Space::LoopTree;
        chain = runSweep(net, chainOpt);
        tree = runSweep(net, treeOpt);
    }
};

struct Sweeps
{
    std::vector<double> both;         //!< wall seconds per operation
    std::vector<double> chain, tree;  //!< wall seconds per sweep
    int64_t chainPoints = 0, treePoints = 0;
    size_t chainFront = 0, treeFront = 0;
};

/** Operations for @p seconds; one operation is a chain sweep followed
 *  by a LoopTree sweep, both checked. */
Sweeps
sweepLoop(State &s, double seconds, const RunOptions &opt, Outcome &out,
          Tracer *tr)
{
    Sweeps w;
    const double t_end = now() + seconds;
    for (int i = 0; now() < t_end; i++) {
        Scope op(tr, "bench.op");
        SweepResult chain, tree;
        const double t0 = now();
        {
            Scope sp(tr, "dse.chain_sweep");
            chain = runSweep(s.net, s.chainOpt);
        }
        const double t1 = now();
        {
            Scope sp(tr, "dse.looptree_sweep");
            tree = runSweep(s.net, s.treeOpt);
        }
        const double t2 = now();
        w.both.push_back(t2 - t0);
        w.chain.push_back(t1 - t0);
        w.tree.push_back(t2 - t1);

        Scope check(tr, "bench.check");
        uint64_t d = digest(s.net, chain);
        if (opt.corrupt && i == 2)
            d ^= 1;
        w.chainPoints = chain.pointsVisited;
        w.chainFront = chain.front.size();
        w.treePoints = tree.pointsVisited;
        w.treeFront = tree.front.size();
        out.ledger.check(d == kChainDigest &&
                             digest(s.net, tree) == kLoopTreeDigest &&
                             coversChainFront(tree, s.chain.chainFront),
                         "sweeps " + std::to_string(i) +
                             ": a front digest differs or the LoopTree "
                             "surface misses a chain-front point");
    }
    return w;
}

/** SchedulePricer build, price() and repriceGroup() over a seeded
 *  sample of the chain front's neighbor schedules. */
void
probePricer(State &s, uint64_t seed, Outcome &out)
{
    MetricSink &m = out.metrics;
    Tracer *tr = &out.tracer;
    {
        Scope sp(tr, "dse.pricer_build");
        m.set("dse.pricer_build_ms",
              medianSeconds(kProbeReps,
                            [&] { SchedulePricer p(s.net); }) *
                  1e3,
              "ms");
    }

    struct Pair
    {
        Schedule base, next;
        size_t group;
    };
    std::vector<Pair> all;
    for (const SweepPoint &p : s.chain.front) {
        for (Schedule &n : neighborSchedules(s.net, p.schedule, s.treeOpt)) {
            if (n.groups.size() != p.schedule.groups.size())
                continue;
            size_t diff = 0, g = 0;
            for (size_t k = 0; k < n.groups.size(); k++) {
                if (!(n.groups[k] == p.schedule.groups[k])) {
                    diff++;
                    g = k;
                }
            }
            if (diff == 1)
                all.push_back({p.schedule, std::move(n), g});
        }
    }
    Rng rng(subSeed(seed, 5));
    std::vector<Pair> sample;
    for (int i = 0; i < kPriceSample && !all.empty(); i++)
        sample.push_back(all[rng.next() % all.size()]);
    out.ledger.invariant(!sample.empty(), "no neighbor schedules sampled");

    SchedulePricer pricer(s.net, s.treeOpt.cost, s.treeOpt.machine);
    std::vector<ScheduleCost> base, full;
    for (const Pair &p : sample) {  // builds every table the loop needs
        base.push_back(pricer.price(p.base));
        full.push_back(pricer.price(p.next));
    }
    const double n = static_cast<double>(sample.size());
    double price_s, reprice_s;
    {
        Scope sp(tr, "dse.price");
        price_s = medianSeconds(kProbeReps, [&] {
            for (const Pair &p : sample)
                (void)pricer.price(p.next);
        });
    }
    bool exact = true;
    {
        Scope sp(tr, "dse.reprice");
        reprice_s = medianSeconds(kProbeReps, [&] {
            for (size_t i = 0; i < sample.size(); i++) {
                const Pair &p = sample[i];
                exact &= sameCost(pricer.repriceGroup(
                                      base[i], p.base.groups[p.group],
                                      p.next.groups[p.group]),
                                  full[i]);
            }
        });
    }
    out.ledger.invariant(exact, "repriceGroup != full price");
    m.set("dse.price_us", price_s / n * 1e6, "us");
    m.set("dse.reprice_us", reprice_s / n * 1e6, "us");
}

} // namespace

void
runDseVgge(const RunOptions &opt, Outcome &out)
{
    double setup_s = 0.0;
    auto s = timedSetup<std::unique_ptr<State>>(
        setupReps(opt), [] { return std::make_unique<State>(); }, &setup_s);
    std::printf("chain digest 0x%016" PRIx64 ", LoopTree digest 0x%016" PRIx64
                "\n",
                digest(s->net, s->chain), digest(s->net, s->tree));

    if (!opt.trace) {
        const Sweeps w = sweepLoop(*s, opt.seconds, opt, out, nullptr);
        std::printf("%zu operations: chain sweep p50 %.1f ms, LoopTree "
                    "sweep p50 %.1f ms\n",
                    w.both.size(), median(w.chain) * 1e3,
                    median(w.tree) * 1e3);
        out.metrics.set("setup_s", setup_s, "s");
        out.metrics.set("peak_rss_mb", peakRssMb(), "MB");
        out.metrics.set("latency_p50_ms", median(w.both) * 1e3, "ms");
        out.metrics.set("throughput_ops", opsPerSecond(w.both), "ops/s");
        return;
    }

    const Sweeps base = sweepLoop(*s, opt.seconds / 2, opt, out, nullptr);
    const Sweeps w = sweepLoop(*s, opt.seconds / 2, opt, out, &out.tracer);
    out.loopSpans = out.tracer.size();
    out.tracedOps = static_cast<int64_t>(w.both.size());
    out.untracedOp = median(base.both);
    out.tracedOp = median(w.both);

    MetricSink &m = out.metrics;
    m.set("dse.chain.sweep_ms", median(base.chain) * 1e3, "ms");
    m.set("dse.looptree.sweep_ms", median(base.tree) * 1e3, "ms");
    m.set("dse.chain.points_per_s",
          static_cast<double>(w.chainPoints) / median(base.chain), "1/s");
    m.set("dse.looptree.points_per_s",
          static_cast<double>(w.treePoints) / median(base.tree), "1/s");
    m.set("dse.chain.points", static_cast<double>(w.chainPoints), "count");
    m.set("dse.chain.front_size", static_cast<double>(w.chainFront),
          "count");
    m.set("dse.looptree.points", static_cast<double>(w.treePoints),
          "count");
    m.set("dse.looptree.front_size", static_cast<double>(w.treeFront),
          "count");
    probePricer(*s, opt.seed, out);
}

} // namespace perfbench
