/**
 * @file
 * The paper's *recompute* strategy (Section III-C): FusedExecutor over a
 * TilePlan that retains no overlap between pyramids. Checked against
 * oracles that share no code with the executor: nn::runRange for the
 * outputs, recomputeOpsForPlan for the arithmetic (DESIGN.md invariant
 * 7), and the closed-form sum of every pyramid's base tile for the
 * DRAM reads. Also the recompute-vs-reuse arithmetic relationship the
 * paper's Section III-C analysis rests on.
 */

#include <gtest/gtest.h>

#include "fusion/fused_executor.hh"
#include "model/recompute.hh"
#include "nn/precision.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "obs/metrics.hh"
#include "tensor/compare.hh"

namespace flcnn {
namespace {

struct RunResult
{
    Tensor out;
    FusedRunStats stats;
};

/** DRAM bytes a recompute plan reads: every pyramid loads its whole
 *  base tile, fullInY[r] x fullInX[c] x C, overlap included. */
int64_t
closedFormLoadedBytes(const TilePlan &plan)
{
    const LayerGeom &g0 = plan.geom(0);
    int64_t rows = 0, cols = 0;
    for (const Span &s : g0.fullInY)
        rows += s.width();
    for (const Span &s : g0.fullInX)
        cols += s.width();
    return rows * cols * g0.inPlane.c * 4;
}

RunResult
runRecompute(const Network &net, int first, int last, uint64_t seed,
             int tip = 1, Precision mode = Precision::Fp32)
{
    Rng wrng(seed);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inShape(first));
    Rng irng(seed ^ 0x77);
    input.fillRandom(irng);
    const NetPrecision prec = NetPrecision::calibrate(net, weights, mode);

    const TilePlan plan(net, first, last, tip, tip, /*retain=*/false);
    FusedExecutor exec(net, weights, plan);
    exec.setPrecision(&prec);
    MetricsRegistry reg;
    exec.setMetrics(&reg);
    RunResult res{Tensor{}, {}};
    res.out = exec.run(input, &res.stats);

    const std::string what = net.name() + " " + precisionName(mode) +
                             " tip=" + std::to_string(tip);
    Tensor ref = runRange(net, weights, input, first, last, &prec);
    CompareResult cmp = compareTensors(ref, res.out);
    EXPECT_TRUE(cmp.match) << what << ": " << cmp.str();

    const OpCount analytic = recomputeOpsForPlan(net, plan);
    EXPECT_EQ(res.stats.ops, analytic) << what;
    EXPECT_EQ(res.stats.loadedBytes, closedFormLoadedBytes(plan)) << what;
    EXPECT_EQ(res.stats.storedBytes, plan.groupOutput().bytes()) << what;
    EXPECT_EQ(res.stats.pyramids, plan.numPyramids()) << what;
    EXPECT_EQ(res.stats.reuseBytes, 0) << what;
    EXPECT_EQ(plan.inputBytesLoaded(), res.stats.loadedBytes) << what;

    // The per-layer breakdown adds up to the same oracles: all reads
    // through the base tile, all writes through the tip.
    const int n = last - first + 1;
    const std::string head =
        MetricsRegistry::layerScope(0, net.layer(first).name);
    const std::string tail =
        MetricsRegistry::layerScope(n - 1, net.layer(last).name);
    EXPECT_EQ(reg.counter(head, "dram_read_bytes"), res.stats.loadedBytes)
        << what;
    EXPECT_EQ(reg.sumCounters("dram_read_bytes"), res.stats.loadedBytes)
        << what;
    EXPECT_EQ(reg.counter(tail, "dram_write_bytes"), res.stats.storedBytes)
        << what;
    EXPECT_EQ(reg.sumCounters("dram_write_bytes"), res.stats.storedBytes)
        << what;
    EXPECT_EQ(reg.sumCounters("mults"), analytic.mults) << what;
    EXPECT_EQ(reg.sumCounters("adds"), analytic.adds) << what;
    EXPECT_EQ(reg.sumCounters("compares"), analytic.compares) << what;
    EXPECT_EQ(reg.sumGauges("reuse_bytes"), 0.0) << what;
    return res;
}

TEST(RecomputeExecutor, MatchesReferenceTwoConv)
{
    runRecompute(tinyNet(), 0, 1, 31);
}

TEST(RecomputeExecutor, MatchesReferenceWithPadPoolRelu)
{
    Network net("mix", Shape{3, 20, 20});
    net.addConvBlock("c1", 4, 3, 1, 1);
    net.addMaxPool("p1", 2, 2);
    net.addConvBlock("c2", 5, 3, 1, 1);
    runRecompute(net, 0, net.numLayers() - 1, 32);
}

TEST(RecomputeExecutor, MatchesReferenceWithLrn)
{
    Network net("lrn", Shape{6, 10, 10});
    net.add(LayerSpec::conv("c1", 6, 3, 1));
    net.add(LayerSpec::lrn("n1"));
    net.add(LayerSpec::conv("c2", 3, 3, 1));
    runRecompute(net, 0, 2, 33);
}

TEST(RecomputeExecutor, ArithmeticBlowupVsReuse)
{
    // Fusing two 3x3/s1 convs with a 1x1 tip recomputes each
    // intermediate point for every pyramid whose base contains it
    // (up to K*K = 9 times); total mult-adds must far exceed the
    // reference while the reuse executor performs exactly the
    // reference amount.
    Network net("blowup", Shape{2, 16, 16});
    net.add(LayerSpec::conv("c1", 3, 3, 1));
    net.add(LayerSpec::conv("c2", 3, 3, 1));

    OpCount ref_ops = rangeOpCount(net, 0, 1);
    RunResult rec = runRecompute(net, 0, 1, 34);

    Rng wrng(34);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(34 ^ 0x77);
    input.fillRandom(irng);
    FusedExecutor fused(net, weights, TilePlan(net, 0, 1, 1, 1));
    FusedRunStats fstats;
    fused.run(input, &fstats);

    // The reuse model performs the baseline work exactly (paper:
    // "the amount of computation performed by the reuse-model
    // fused-layer accelerator and the baseline accelerator are
    // identical").
    EXPECT_EQ(fstats.ops.mults, ref_ops.mults);
    EXPECT_EQ(fstats.ops.adds, ref_ops.adds);

    // The recompute model repeats layer-1 work; interior points are
    // computed 9 times.
    EXPECT_GT(rec.stats.ops.multAdds(), 3 * ref_ops.multAdds());
    EXPECT_LT(rec.stats.ops.multAdds(), 10 * ref_ops.multAdds());
}

TEST(RecomputeExecutor, WiderTipReducesRecomputation)
{
    Network net("tip", Shape{2, 20, 20});
    net.add(LayerSpec::conv("c1", 3, 3, 1));
    net.add(LayerSpec::conv("c2", 3, 3, 1));

    RunResult tip1 = runRecompute(net, 0, 1, 35, 1);
    RunResult tip4 = runRecompute(net, 0, 1, 35, 4);
    EXPECT_LT(tip4.stats.ops.multAdds(), tip1.stats.ops.multAdds());
}

TEST(RecomputeExecutor, ReloadsOverlappingInput)
{
    // Recompute re-reads the base-tile overlap from DRAM; reuse loads
    // each input element exactly once.
    Network net("reload", Shape{2, 14, 14});
    net.add(LayerSpec::conv("c1", 3, 3, 1));
    net.add(LayerSpec::conv("c2", 3, 3, 1));
    RunResult rec = runRecompute(net, 0, 1, 36);
    EXPECT_GT(rec.stats.loadedBytes, net.inputShape().bytes());

    TilePlan plan(net, 0, 1, 1, 1);
    EXPECT_EQ(plan.inputBytesLoaded(), net.inputShape().bytes());
}

class RecomputeRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(RecomputeRandom, MatchesReferenceOnRandomNetworks)
{
    const uint64_t seed = static_cast<uint64_t>(GetParam());
    Rng rng(seed * 31337 + 5);
    Network net = randomFusableNet(rng);
    // Tips 1..3, so recompute tiles also start mid-source-tile.
    const int tip = 1 + static_cast<int>(seed % 3);
    for (Precision mode :
         {Precision::Fp32, Precision::Int8, Precision::Fp16})
        runRecompute(net, 0, net.numLayers() - 1, seed, tip, mode);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RecomputeRandom, ::testing::Range(0, 25));

} // namespace
} // namespace flcnn
