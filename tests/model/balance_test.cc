/** @file Fused-pipeline unroll balancing (Section IV-B). */

#include <gtest/gtest.h>

#include "model/balance.hh"
#include "model/baseline.hh"
#include "nn/zoo.hh"

namespace flcnn {
namespace {

TEST(Balance, RespectsDspBudget)
{
    Network net = vggEPrefix(5);
    for (int budget : {200, 500, 1000, 2987}) {
        auto cfg = balanceFusedPipeline(net, 0, net.numLayers() - 1,
                                        budget);
        EXPECT_LE(cfg.totalDsp, budget);
        EXPECT_EQ(cfg.unrolls.size(), 5u);
    }
}

TEST(Balance, BottleneckIsMaxLayerCycles)
{
    Network net = vggEPrefix(5);
    auto cfg = balanceFusedPipeline(net, 0, net.numLayers() - 1, 2987);
    int64_t max_cycles = 0;
    for (const LayerUnroll &u : cfg.unrolls) {
        max_cycles = std::max(
            max_cycles, fusedLayerCycles(net, u.layerIdx, u.tm, u.tn));
    }
    EXPECT_EQ(cfg.bottleneckCycles, max_cycles);
}

TEST(Balance, PipelineIsReasonablyBalanced)
{
    // The point of the search: no stage should idle most of the time.
    Network net = vggEPrefix(5);
    auto cfg = balanceFusedPipeline(net, 0, net.numLayers() - 1, 2987);
    for (const LayerUnroll &u : cfg.unrolls) {
        int64_t c = fusedLayerCycles(net, u.layerIdx, u.tm, u.tn);
        EXPECT_GE(c * 4, cfg.bottleneckCycles)
            << "layer " << u.layerIdx << " is >4x faster than needed";
    }
}

TEST(Balance, MoreDspNeverWorse)
{
    Network net = vggEPrefix(5);
    int64_t prev = INT64_MAX;
    for (int budget : {300, 600, 1200, 2400, 4800}) {
        auto cfg = balanceFusedPipeline(net, 0, net.numLayers() - 1,
                                        budget);
        EXPECT_LE(cfg.bottleneckCycles, prev);
        prev = cfg.bottleneckCycles;
    }
}

TEST(Balance, FusedBottleneckNearBaselineCycles)
{
    // The fused pipeline performs the same arithmetic as the baseline;
    // with a comparable DSP budget its bottleneck-stage per-image
    // cycles land in the same range as the baseline's total (the paper
    // measures fused at +6.5% over the baseline).
    Network net = vggEPrefix(5);
    BaselineConfig base_cfg = optimizeBaseline(net, 2880);
    int64_t base = evaluateBaseline(net, base_cfg).totalCycles;
    auto fused = balanceFusedPipeline(net, 0, net.numLayers() - 1, 2987);
    double ratio = static_cast<double>(fused.bottleneckCycles) /
                   static_cast<double>(base);
    EXPECT_GT(ratio, 0.5);
    EXPECT_LT(ratio, 1.5);
}

TEST(Balance, SingleConvUsesWholeBudget)
{
    Network net("one", Shape{8, 16, 16});
    net.add(LayerSpec::conv("c", 16, 3, 1));
    auto cfg = balanceFusedPipeline(net, 0, 0, 640);
    ASSERT_EQ(cfg.unrolls.size(), 1u);
    EXPECT_LE(cfg.unrolls[0].tm * cfg.unrolls[0].tn * 5, 640);
    // With 640 DSPs (128 lanes) and M*N = 16*8 = 128 lanes max, the
    // optimum is full unroll.
    EXPECT_EQ(cfg.unrolls[0].tm, 16);
    EXPECT_EQ(cfg.unrolls[0].tn, 8);
}

TEST(Balance, LayerCyclesLookup)
{
    Network net = vggEPrefix(2);
    auto cfg = balanceFusedPipeline(net, 0, net.numLayers() - 1, 500);
    for (const LayerUnroll &u : cfg.unrolls) {
        EXPECT_EQ(cfg.layerCycles(net, u.layerIdx),
                  fusedLayerCycles(net, u.layerIdx, u.tm, u.tn));
    }
}

TEST(BalanceDeath, ImpossibleBudgetIsFatal)
{
    // The global thread pool is already running when this test runs in
    // a whole-binary process. A plain fork leaves the child without its
    // workers, and exit(1) in the child would join them; re-exec instead.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Network net = vggEPrefix(5);
    EXPECT_EXIT(balanceFusedPipeline(net, 0, net.numLayers() - 1, 10),
                ::testing::ExitedWithCode(1), "budget");
}

TEST(Balance, GroupedConvolutionsBalanceToo)
{
    Network net = alexnetFusedPrefix();
    auto cfg = balanceFusedPipeline(net, 0, net.numLayers() - 1, 2401);
    EXPECT_EQ(cfg.unrolls.size(), 2u);
    EXPECT_LE(cfg.totalDsp, 2401);
}

} // namespace
} // namespace flcnn
