/**
 * @file
 * The paper's Section V explorer as the Chain sweep: Figure 7's points
 * A/B/C and 24x reduction, the closed-form storage model, weight
 * residency, dtype pricing, and a brute-force check of every point
 * against the per-partition models.
 */

#include <gtest/gtest.h>

#include "common/units.hh"
#include "dse/sweep.hh"
#include "model/recompute.hh"
#include "model/storage.hh"
#include "model/transfer.hh"
#include "nn/zoo.hh"

namespace flcnn {
namespace dse {
namespace {

/** Chain sweep of @p net under the given storage/transfer pricing. */
SweepResult
explore(const Network &net, const GroupCostOptions &cost = {})
{
    SweepOptions opt;
    opt.cost = cost;
    return runSweep(net, opt);
}

TEST(Explorer, VggPrefixSweepsAll64Points)
{
    Network net = vggEPrefix(5);
    auto res = explore(net);
    EXPECT_EQ(res.points.size(), 64u);
    EXPECT_GE(res.legacyFront.size(), 3u);
    EXPECT_LE(res.legacyFront.size(), 64u);
}

TEST(Explorer, AlexNetSweepsAll128Points)
{
    Network net = alexnet();
    auto res = explore(net);
    EXPECT_EQ(res.points.size(), 128u);
}

TEST(Explorer, VggFrontEndsAtPointC)
{
    // The minimum-transfer extreme is full fusion: 3.64 MB at ~362 KB.
    Network net = vggEPrefix(5);
    auto res = explore(net);
    const DesignPoint &c = res.legacyFront.back();
    EXPECT_EQ(c.partition.size(), 1u);
    EXPECT_NEAR(toMiB(c.transferBytes), 3.64, 0.02);
    EXPECT_NEAR(toKiB(c.storageBytes), 362.0, 8.0);
}

TEST(Explorer, PointBIsOnTheFront)
{
    // 118 KB / 25 MB: the designer's mid-range trade-off.
    Network net = vggEPrefix(5);
    auto res = explore(net);
    const DesignPoint *b = bestUnderStorage(res.legacyFront, 120 * 1024);
    ASSERT_NE(b, nullptr);
    EXPECT_NEAR(toKiB(b->storageBytes), 118.0, 5.0);
    EXPECT_NEAR(toMiB(b->transferBytes), 25.0, 0.5);
}

TEST(Explorer, LayerByLayerPointAIn86MBRange)
{
    // Point A is the all-singleton partition at zero storage.
    Network net = vggEPrefix(5);
    auto res = explore(net);
    bool found = false;
    for (const DesignPoint &p : res.points) {
        if (p.partition.size() == 7) {
            EXPECT_EQ(p.storageBytes, 0);
            EXPECT_NEAR(toMiB(p.transferBytes), 86.3, 0.5);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Explorer, FrontIsMutuallyNonDominating)
{
    Network net = alexnet();
    auto res = explore(net);
    const auto &front = res.legacyFront;
    for (size_t a = 0; a < front.size(); a++)
        for (size_t b = 0; b < front.size(); b++)
            if (a != b) {
                EXPECT_FALSE(front[a].dominates(front[b]));
            }
}

TEST(Explorer, EveryPointCoveredByFront)
{
    // No point may dominate a front member.
    Network net = vggEPrefix(4);
    auto res = explore(net);
    for (const DesignPoint &p : res.points)
        for (const DesignPoint &f : res.legacyFront)
            EXPECT_FALSE(p.dominates(f));
}

TEST(Explorer, ClosedFormSweepAgreesOnVgg)
{
    Network net = vggEPrefix(5);
    GroupCostOptions fast;
    fast.exactStorage = false;
    auto exact = explore(net);
    auto approx = explore(net, fast);
    ASSERT_EQ(exact.points.size(), approx.points.size());
    for (size_t i = 0; i < exact.points.size(); i++) {
        EXPECT_EQ(exact.points[i].transferBytes,
                  approx.points[i].transferBytes);
        double e = static_cast<double>(exact.points[i].storageBytes);
        double a = static_cast<double>(approx.points[i].storageBytes);
        if (e > 0) {
            EXPECT_NEAR(a / e, 1.0, 0.15) << i;
        }
    }
}

TEST(Explorer, RecomputeOptionPricesPoints)
{
    Network net = vggEPrefix(3);
    GroupCostOptions opt;
    opt.withRecompute = true;
    auto res = explore(net, opt);
    bool any_positive = false;
    for (const DesignPoint &p : res.points)
        any_positive |= (p.extraOps > 0);
    EXPECT_TRUE(any_positive);
}

TEST(Explorer, WeightStorageShiftsTheFrontAwayFromDeepFusion)
{
    // With weight residency priced in, fusing weight-heavy deep stages
    // costs megabytes of storage; the front's full-fusion extreme gets
    // much more expensive while shallow points are barely affected.
    Network net = vggEPrefix(8);
    GroupCostOptions plain;
    plain.exactStorage = false;
    GroupCostOptions weighted = plain;
    weighted.includeWeightStorage = true;

    auto a = explore(net, plain);
    auto b = explore(net, weighted);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); i++) {
        EXPECT_GE(b.points[i].storageBytes, a.points[i].storageBytes);
        EXPECT_EQ(b.points[i].transferBytes, a.points[i].transferBytes);
    }
    // Full fusion of 8 convs carries >5 MB of weights on chip.
    int64_t delta = b.points[0].storageBytes - a.points[0].storageBytes;
    EXPECT_GT(delta, 5LL * 1024 * 1024);
    // Singleton partitions carry nothing extra.
    EXPECT_EQ(a.points.back().storageBytes,
              b.points.back().storageBytes);
}

TEST(Explorer, GoogLeNetStemExploresCleanly)
{
    Network net = googlenetStem();
    auto res = explore(net);
    EXPECT_EQ(res.points.size(),
              static_cast<size_t>(
                  countPartitions(static_cast<int>(net.stages().size()))));
    EXPECT_GE(res.legacyFront.size(), 2u);
    // Full fusion still transfers the least.
    EXPECT_EQ(res.legacyFront.back().partition.size(), 1u);
}

TEST(Explorer, TransferReductionIs24xOnVggPrefix)
{
    // "This design transfers only 3.6MB per image, a 24x reduction in
    // DRAM traffic" (relative to the 86 MB layer-by-layer point).
    Network net = vggEPrefix(5);
    auto res = explore(net);
    double a = static_cast<double>(layerByLayerTransferBytes(net));
    double c = static_cast<double>(res.legacyFront.back().transferBytes);
    EXPECT_NEAR(a / c, 24.0, 1.0);
}

TEST(Explorer, DtypeThreadsThroughExploration)
{
    // The sweep re-prices the whole space per dtype: every design
    // point's byte costs shrink by the element width, so the int8
    // sweep is the fp32 sweep scaled — same partitions, same ops.
    Network net = vggEPrefix(4);
    GroupCostOptions i8opt;
    i8opt.dtype = Precision::Int8;
    const SweepResult f32 = explore(net);
    const SweepResult i8 = explore(net, i8opt);
    ASSERT_EQ(i8.points.size(), f32.points.size());
    for (size_t i = 0; i < f32.points.size(); i++) {
        EXPECT_EQ(i8.points[i].partition, f32.points[i].partition);
        EXPECT_EQ(i8.points[i].storageBytes,
                  f32.points[i].storageBytes / 4)
            << i;
        EXPECT_EQ(i8.points[i].transferBytes,
                  f32.points[i].transferBytes / 4)
            << i;
        EXPECT_EQ(i8.points[i].extraOps, f32.points[i].extraOps);
    }
}

TEST(Explorer, MatchesBruteForceSweep)
{
    // The table-driven, mask-tree Chain sweep must reproduce the obvious
    // implementation — enumerate every partition, price it with the
    // models directly, take the Pareto front — in enumeration order.
    Network net = vggEPrefix(5);
    for (bool weights : {false, true}) {
        GroupCostOptions opt;
        opt.exactStorage = false;
        opt.includeWeightStorage = weights;
        opt.withRecompute = true;
        SweepResult res = explore(net, opt);

        const int stages = static_cast<int>(net.stages().size());
        std::vector<Partition> all = enumeratePartitions(stages);
        ASSERT_EQ(res.points.size(), all.size());
        std::vector<DesignPoint> brute;
        for (size_t i = 0; i < all.size(); i++) {
            DesignPoint d;
            d.partition = all[i];
            d.storageBytes =
                partitionReuseStorageBytes(net, all[i], false);
            if (weights) {
                for (const StageGroup &g : all[i]) {
                    if (g.size() == 1)
                        continue;
                    int fl, ll;
                    groupLayerRange(net, g, fl, ll);
                    d.storageBytes += net.weightBytesInRange(fl, ll);
                }
            }
            d.transferBytes = partitionTransferBytes(net, all[i]);
            d.extraOps =
                partitionPairwiseRecomputeExtraMultAdds(net, all[i]);
            EXPECT_EQ(res.points[i].partition, all[i]) << i;
            EXPECT_EQ(res.points[i].storageBytes, d.storageBytes) << i;
            EXPECT_EQ(res.points[i].transferBytes, d.transferBytes) << i;
            EXPECT_EQ(res.points[i].extraOps, d.extraOps) << i;
            brute.push_back(std::move(d));
        }

        std::vector<DesignPoint> front = paretoFront(std::move(brute));
        ASSERT_EQ(res.legacyFront.size(), front.size());
        for (size_t i = 0; i < front.size(); i++) {
            EXPECT_EQ(res.legacyFront[i].partition, front[i].partition)
                << i;
            EXPECT_EQ(res.legacyFront[i].storageBytes,
                      front[i].storageBytes);
            EXPECT_EQ(res.legacyFront[i].transferBytes,
                      front[i].transferBytes);
        }
    }
}

} // namespace
} // namespace dse
} // namespace flcnn
