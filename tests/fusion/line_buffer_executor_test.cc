/**
 * @file
 * The line buffer: FusedExecutor over a retaining one-column plan (tip
 * full-width output rows per pyramid, the plan PlanEngine::LineBuffer
 * compiles). Bit-exact equivalence with the reference and with 1x1
 * pyramids, plus ring capacity accounting.
 */

#include <gtest/gtest.h>

#include "common/thread_pool.hh"
#include "fusion/fused_executor.hh"
#include "nn/precision.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "tensor/compare.hh"

namespace flcnn {
namespace {

/** The one-column plan over [first, last], @p tip output rows tall. */
TilePlan
lineBufferPlan(const Network &net, int first, int last, int tip = 1)
{
    return TilePlan(net, first, last, tip, net.outShape(last).w);
}

void
expectLineBufferMatches(const Network &net, int first, int last,
                        uint64_t seed, int row_block = 1)
{
    Rng wrng(seed);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inShape(first));
    Rng irng(seed ^ 0xbeef);
    input.fillRandom(irng);

    Tensor ref = runRange(net, weights, input, first, last);
    FusedExecutor exec(net, weights,
                       lineBufferPlan(net, first, last, row_block));
    exec.setTrackCoverage(true);
    FusedRunStats stats;
    Tensor out = exec.run(input, &stats);

    CompareResult cmp = compareTensors(ref, out);
    EXPECT_TRUE(cmp.match)
        << net.name() << " block " << row_block << ": " << cmp.str();
    EXPECT_EQ(exec.coverageReport(), "") << net.name();
    // Every input element a window reads is loaded exactly once.
    EXPECT_EQ(stats.loadedBytes, exec.plan().inputBytesLoaded());
    EXPECT_LE(stats.loadedBytes, net.inShape(first).bytes());
    EXPECT_EQ(stats.storedBytes, net.outShape(last).bytes());
}

TEST(LineBufferExecutor, TwoConv)
{
    expectLineBufferMatches(tinyNet(), 0, 1, 41);
}

TEST(LineBufferExecutor, PadConvReluPoolStack)
{
    Network net("stack", Shape{3, 22, 22});
    net.addConvBlock("c1", 4, 3, 1, 1);
    net.addMaxPool("p1", 3, 2);
    net.addConvBlock("c2", 5, 3, 1, 2);
    expectLineBufferMatches(net, 0, net.numLayers() - 1, 42);
}

TEST(LineBufferExecutor, StridedAndGrouped)
{
    Network net("sg", Shape{4, 25, 25});
    net.add(LayerSpec::conv("c1", 6, 5, 2, 2));
    net.add(LayerSpec::relu("r1"));
    net.add(LayerSpec::conv("c2", 4, 3, 1));
    expectLineBufferMatches(net, 0, 2, 43);
}

TEST(LineBufferExecutor, LrnStage)
{
    Network net("lrn", Shape{6, 12, 12});
    net.add(LayerSpec::conv("c1", 6, 3, 1));
    net.add(LayerSpec::lrn("n1"));
    net.add(LayerSpec::conv("c2", 3, 3, 1));
    expectLineBufferMatches(net, 0, 2, 44);
}

TEST(LineBufferExecutor, AvgPool)
{
    Network net("avg", Shape{2, 15, 15});
    net.add(LayerSpec::conv("c1", 3, 3, 1));
    net.add(LayerSpec::pool("p1", 3, 2, PoolMode::Avg));
    expectLineBufferMatches(net, 0, 1, 45);
}

TEST(LineBufferExecutor, BufferBytesAreTileRowsPerWindowedLayer)
{
    // Each windowed layer's ring holds its tallest tile: (rows per
    // pyramid - 1) * S + K full-width rows.
    Network net("bytes", Shape{3, 18, 18});
    net.add(LayerSpec::conv("c1", 4, 3, 1));  // 2 rows/pyramid: 4 x 18
    net.add(LayerSpec::pool("p1", 2, 2));     // 1 row/pyramid: 2 x 16
    Rng rng(1);
    NetworkWeights weights(net, rng);
    FusedExecutor exec(net, weights, lineBufferPlan(net, 0, 1));
    int64_t expect = (3LL * 4 * 18 + 4LL * 2 * 16) * 4;
    EXPECT_EQ(exec.ringBytes(), expect);
}

TEST(LineBufferExecutor, AgreesWithPyramidExecutor)
{
    Network net("agree", Shape{3, 21, 21});
    net.addConvBlock("c1", 4, 3, 1, 1);
    net.addMaxPool("p1", 3, 2);
    net.addConvBlock("c2", 6, 3, 1, 1);

    Rng wrng(46);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(47);
    input.fillRandom(irng);

    FusedExecutor lb(net, weights,
                     lineBufferPlan(net, 0, net.numLayers() - 1));
    FusedExecutor py(net, weights,
                     TilePlan(net, 0, net.numLayers() - 1, 1, 1));
    Tensor a = lb.run(input);
    Tensor b = py.run(input);
    EXPECT_TRUE(tensorsEqual(a, b));
}

TEST(LineBufferExecutor, RowBlockingStaysExact)
{
    Network net("blk", Shape{3, 23, 23});
    net.addConvBlock("c1", 4, 3, 1, 1);
    net.addMaxPool("p1", 3, 2);
    net.addConvBlock("c2", 6, 3, 1, 1);
    for (int block : {1, 2, 3, 4, 7, 32})
        expectLineBufferMatches(net, 0, net.numLayers() - 1, 48, block);
}

TEST(LineBufferExecutor, RowBlockingStridedAndRagged)
{
    Network net("blkrag", Shape{2, 29, 25});
    net.add(LayerSpec::conv("c1", 4, 5, 2));
    net.add(LayerSpec::conv("c2", 3, 2, 1));
    for (int block : {2, 3, 5})
        expectLineBufferMatches(net, 0, 1, 49, block);
}

TEST(LineBufferExecutor, RowBlockingGrowsBuffers)
{
    Network net("blkbuf", Shape{3, 18, 18});
    net.add(LayerSpec::conv("c1", 4, 3, 1));
    Rng rng(1);
    NetworkWeights weights(net, rng);
    FusedExecutor one(net, weights, lineBufferPlan(net, 0, 0, 1));
    FusedExecutor four(net, weights, lineBufferPlan(net, 0, 0, 4));
    // ring rows: K vs (B-1)*S + K.
    EXPECT_EQ(one.ringBytes(), 3LL * 3 * 18 * 4);
    EXPECT_EQ(four.ringBytes(), 3LL * 6 * 18 * 4);
}

const Precision kAllPrecisions[] = {Precision::Fp32, Precision::Int8,
                                    Precision::Fp16};

/** RAII: run a scope at a fixed global thread count, then restore the
 *  default so other tests are unaffected. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(int n) { ThreadPool::setGlobalThreads(n); }
    ~ScopedThreads() { ThreadPool::setGlobalThreads(0); }
};

TEST(LineBufferExecutor, DifferentialSweepBitExactAcrossThreadCounts)
{
    // The determinism contract of the thread pool, proven end to end:
    // a Pad -> Conv -> ReLU -> LRN -> Pool chain over the full
    // stride / kernel / row-block / precision grid produces outputs
    // bit-identical to the single-threaded precision reference at every
    // thread count. Row blocks > 1 and strides > 1 make the ring wrap
    // mid-image, so int8/fp16 also exercise the incremental staging of
    // wrapped ring rows.
    const int hw = ThreadPool::defaultThreads();
    uint64_t seed = 0;
    for (int stride : {1, 2, 4}) {
        for (int kernel : {1, 3, 5, 7, 11}) {
            for (int row_block : {1, 2, 3}) {
                seed++;
                Network net("diff" + std::to_string(seed),
                            Shape{3, 46, 43});
                net.add(LayerSpec::padding("pad", 1));
                net.add(LayerSpec::conv("conv", 5, kernel, stride));
                net.add(LayerSpec::relu("relu"));
                net.add(LayerSpec::lrn("lrn"));
                net.add(LayerSpec::pool("pool", 2, 2,
                                        seed % 2 ? PoolMode::Max
                                                 : PoolMode::Avg));

                Rng wrng(seed * 7919 + 1);
                NetworkWeights weights(net, wrng);
                Tensor input(net.inputShape());
                Rng irng(seed * 104729 + 2);
                input.fillRandom(irng);

                for (Precision mode : kAllPrecisions) {
                    const NetPrecision prec =
                        NetPrecision::calibrate(net, weights, mode);
                    Tensor ref;
                    {
                        ScopedThreads serial(1);
                        ref = runRange(net, weights, input, 0,
                                       net.numLayers() - 1, &prec);
                    }
                    for (int threads : {1, 2, 4, hw}) {
                        ScopedThreads scope(threads);
                        FusedExecutor exec(
                            net, weights,
                            lineBufferPlan(net, 0, net.numLayers() - 1,
                                           row_block));
                        exec.setPrecision(&prec);
                        Tensor out = exec.run(input);
                        CompareResult cmp = compareTensors(ref, out);
                        ASSERT_TRUE(cmp.match)
                            << precisionName(mode) << " stride=" << stride
                            << " kernel=" << kernel
                            << " rowBlock=" << row_block
                            << " threads=" << threads << ": "
                            << cmp.str();
                    }
                }
            }
        }
    }
}

TEST(LineBufferExecutor, ReferenceItselfIsThreadCountInvariant)
{
    // runRange is also parallelized; its output must not depend on the
    // pool width either.
    Network net("refinv", Shape{3, 30, 30});
    net.addConvBlock("c1", 6, 3, 1, 1);
    net.addMaxPool("p1", 3, 2);
    net.addConvBlock("c2", 4, 5, 1, 2);
    Rng wrng(77);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(78);
    input.fillRandom(irng);

    Tensor ref;
    {
        ScopedThreads serial(1);
        ref = runRange(net, weights, input, 0, net.numLayers() - 1);
    }
    for (int threads : {2, 3, 8}) {
        ScopedThreads scope(threads);
        Tensor out = runRange(net, weights, input, 0,
                              net.numLayers() - 1);
        ASSERT_TRUE(tensorsEqual(ref, out)) << "threads=" << threads;
    }
}

class LineBufferRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(LineBufferRandom, MatchesReferenceOnRandomNetworks)
{
    const uint64_t seed = static_cast<uint64_t>(GetParam());
    Rng rng(seed * 271 + 3);
    Network net = randomFusableNet(rng);
    int block = rng.range(1, 5);
    expectLineBufferMatches(net, 0, net.numLayers() - 1, seed, block);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LineBufferRandom, ::testing::Range(0, 30));

} // namespace
} // namespace flcnn
