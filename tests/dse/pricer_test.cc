/**
 * @file
 * Schedule pricer: chain cells and chain-anchor consistency with the
 * paper's per-group models, tile/dataflow pricing behavior, the table
 * cache's keying, and exact incremental re-pricing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "dse/pricer.hh"
#include "dse/sweep.hh"
#include "model/recompute.hh"
#include "model/storage.hh"
#include "model/transfer.hh"
#include "nn/zoo.hh"

namespace flcnn {
namespace dse {
namespace {

/** One group's chain-space costs straight from the model formulas
 *  (model/{storage,transfer,recompute} and the weight bytes), with
 *  the fp32 byte counts rescaled to the priced dtype. */
ChainCell
modelCell(const Network &net, const StageGroup &g,
          const GroupCostOptions &opt)
{
    ChainCell c;
    c.storage = groupReuseStorageBytes(net, g, opt.exactStorage);
    c.transfer = groupTransferBytes(net, g);
    if (g.size() > 1) {
        int fl, ll;
        groupLayerRange(net, g, fl, ll);
        if (opt.includeWeightStorage)
            c.storage += net.weightBytesInRange(fl, ll);
        if (opt.withRecompute)
            c.extra = pairwiseRecomputeExtraMultAdds(net, fl, ll);
    }
    const int64_t eb = precisionElemBytes(opt.dtype);
    c.storage = c.storage / 4 * eb;
    c.transfer = c.transfer / 4 * eb;
    return c;
}

/** Every stage range's chain cell must equal the direct model
 *  evaluation, and its chain-restricted groups must price
 *  bit-identically to that cell on the shared axes. */
void
expectChainAnchor(const Network &net, const GroupCostOptions &opt)
{
    SchedulePricer pricer(net, opt);
    const int stages = static_cast<int>(net.stages().size());
    for (int a = 0; a < stages; a++) {
        for (int b = a; b < stages; b++) {
            const std::string at = net.name() + " [" + std::to_string(a) +
                                   "," + std::to_string(b) + "]";
            const ChainCell want = modelCell(net, StageGroup{a, b}, opt);
            const ChainCell cell = pricer.chainCell(a, b);
            EXPECT_EQ(cell.storage, want.storage) << at;
            EXPECT_EQ(cell.transfer, want.transfer) << at;
            EXPECT_EQ(cell.extra, want.extra) << at;
            // All-retain: the paper's model. No recompute is incurred.
            ScheduleCost keep = pricer.priceGroup(
                GroupSchedule{a, b, 1, Dataflow::Pyramid, ~0u});
            if (opt.exactStorage) {
                EXPECT_EQ(keep.storageBytes, want.storage) << at;
            }
            EXPECT_EQ(keep.transferBytes, want.transfer) << at;
            EXPECT_EQ(keep.extraOps, 0);
            EXPECT_TRUE(keep.exact());
            // All-recompute at 1-row tiles: the pairwise model's total.
            if (opt.withRecompute) {
                ScheduleCost rec = pricer.priceGroup(
                    GroupSchedule{a, b, 1, Dataflow::Pyramid, 0u});
                EXPECT_EQ(rec.extraOps, want.extra) << at;
            }
        }
    }
}

TEST(SchedulePricer, ChainAnchorMatchesLegacyCells)
{
    expectChainAnchor(vggEPrefix(5), GroupCostOptions{});
    expectChainAnchor(alexnet(), GroupCostOptions{});
    expectChainAnchor(vggE(), GroupCostOptions{});
}

TEST(SchedulePricer, ChainAnchorWithRecompute)
{
    GroupCostOptions opt;
    opt.withRecompute = true;
    expectChainAnchor(vggEPrefix(5), opt);
    expectChainAnchor(alexnet(), opt);
    expectChainAnchor(vggE(), opt);
}

TEST(SchedulePricer, ChainAnchorInt8)
{
    GroupCostOptions opt;
    opt.withRecompute = true;
    opt.dtype = Precision::Int8;
    expectChainAnchor(vggEPrefix(5), opt);
}

TEST(SchedulePricer, ChainAnchorWithWeightStorage)
{
    GroupCostOptions opt;
    opt.includeWeightStorage = true;
    expectChainAnchor(vggEPrefix(5), opt);
}

TEST(ChainCell, CellsEqualDirectModelCalls)
{
    // Both storage models, with the recompute axis priced.
    for (bool exact : {true, false}) {
        GroupCostOptions opt;
        opt.exactStorage = exact;
        opt.withRecompute = true;
        expectChainAnchor(vggEPrefix(4), opt);
    }
}

TEST(ChainCell, WeightResidencyAddsOnlyToMultiStageGroups)
{
    Network net = vggEPrefix(4);
    GroupCostOptions plain;
    plain.exactStorage = false;
    GroupCostOptions weighted = plain;
    weighted.includeWeightStorage = true;
    SchedulePricer a(net, plain), b(net, weighted);
    const int stages = static_cast<int>(net.stages().size());
    for (int first = 0; first < stages; first++) {
        for (int last = first; last < stages; last++) {
            const int64_t added = b.chainCell(first, last).storage -
                                  a.chainCell(first, last).storage;
            if (first == last) {
                EXPECT_EQ(added, 0);
            } else {
                int fl, ll;
                groupLayerRange(net, StageGroup{first, last}, fl, ll);
                EXPECT_EQ(added, net.weightBytesInRange(fl, ll));
            }
        }
    }
}

TEST(ChainCell, DtypeScalesStorageAndTransferNotOps)
{
    // Every byte count in the model is elems * 4; a narrower element
    // type rescales storage and transfer exactly (int8 / 4, fp16 / 2)
    // and leaves the recompute mult-adds untouched.
    Network net = vggEPrefix(4);
    GroupCostOptions f32opt;
    f32opt.withRecompute = true;
    GroupCostOptions i8opt = f32opt, f16opt = f32opt;
    i8opt.dtype = Precision::Int8;
    f16opt.dtype = Precision::Fp16;
    SchedulePricer f32(net, f32opt), i8(net, i8opt), f16(net, f16opt);
    const int stages = static_cast<int>(net.stages().size());
    for (int a = 0; a < stages; a++) {
        for (int b = a; b < stages; b++) {
            const ChainCell c32 = f32.chainCell(a, b);
            const ChainCell c8 = i8.chainCell(a, b);
            const ChainCell c16 = f16.chainCell(a, b);
            EXPECT_EQ(c8.storage, c32.storage / 4) << a << ".." << b;
            EXPECT_EQ(c8.transfer, c32.transfer / 4);
            EXPECT_EQ(c16.storage, c32.storage / 2);
            EXPECT_EQ(c16.transfer, c32.transfer / 2);
            EXPECT_EQ(c8.extra, c32.extra);
            EXPECT_EQ(c16.extra, c32.extra);
        }
    }
}

TEST(SchedulePricer, TableCacheKeepsEveryRangeApart)
{
    // 70 stages of 1x1 convs with alternating widths, so neighboring
    // ranges differ in transfer. Every range of up to 32 stages (the
    // retain mask's width) is priced in ascending order ([34, 64]
    // before [35, 64], ...): a table key that aliased two ranges would
    // hand the later one the earlier one's table.
    constexpr int kStages = 70, kMaxGroup = 32;
    Network net("conv1x1_chain", Shape{2, 4, 4});
    for (int i = 0; i < kStages; i++)
        net.add(LayerSpec::conv("c" + std::to_string(i),
                                i % 2 == 0 ? 5 : 3, 1));
    ASSERT_EQ(net.stages().size(), size_t{kStages});
    SchedulePricer pricer(net);
    size_t ranges = 0;
    for (int a = 0; a < kStages; a++) {
        for (int b = a; b < std::min(kStages, a + kMaxGroup); b++) {
            EXPECT_EQ(pricer
                          .priceGroup(GroupSchedule{a, b, 1,
                                                    Dataflow::Pyramid, ~0u})
                          .transferBytes,
                      groupTransferBytes(net, StageGroup{a, b}))
                << "[" << a << "," << b << "]";
            ranges++;
        }
    }
    EXPECT_EQ(pricer.tablesBuilt(), ranges);
}

TEST(SchedulePricer, TallerTilesGrowStorageAndAmortizeRecompute)
{
    Network net = vggEPrefix(3);
    SchedulePricer pricer(net);
    const int stages = static_cast<int>(net.stages().size());
    for (int pass = 0; pass < 2; pass++) {
        int64_t prev_storage = -1;
        int64_t prev_extra = -1;
        for (int t : {1, 2, 4, 8}) {
            const uint32_t mask = pass == 0 ? ~0u : 0u;
            ScheduleCost c = pricer.priceGroup(
                GroupSchedule{0, stages - 1, t, Dataflow::Pyramid, mask});
            // Transfer is tile-invariant: input in, output out, once.
            EXPECT_EQ(c.transferBytes,
                      pricer.priceGroup(GroupSchedule{0, stages - 1, 1,
                                                      Dataflow::Pyramid,
                                                      mask})
                          .transferBytes);
            if (pass == 0 && prev_storage >= 0) {
                // The BL column state grows with the tile height.
                EXPECT_GE(c.storageBytes, prev_storage);
            }
            if (pass == 1 && prev_extra >= 0) {
                // Taller tiles amortize vertical window re-use.
                EXPECT_LE(c.extraOps, prev_extra);
            }
            prev_storage = c.storageBytes;
            prev_extra = c.extraOps;
            EXPECT_GT(c.latencyCycles, 0);
            EXPECT_GT(c.energyPj, 0);
        }
    }
}

TEST(SchedulePricer, UniformStrideDropsColumnStateAndSramEnergy)
{
    Network net = vggEPrefix(2);
    SchedulePricer pricer(net);
    GroupSchedule pyr{0, 1, 1, Dataflow::Pyramid, ~0u};
    GroupSchedule us{0, 1, 1, Dataflow::UniformStride, ~0u};
    ScheduleCost cp = pricer.priceGroup(pyr);
    ScheduleCost cu = pricer.priceGroup(us);
    // Only the row (BT) halo persists: strictly less retained state on
    // a stride-1 conv stack (which has a real BL column).
    EXPECT_LT(cu.storageBytes, cp.storageBytes);
    // Intermediates stream through the array instead of bouncing
    // through SRAM, so modeled energy drops.
    EXPECT_LT(cu.energyPj, cp.energyPj);
    EXPECT_EQ(cu.transferBytes, cp.transferBytes);
    EXPECT_TRUE(cu.exact());
}

TEST(SchedulePricer, IndependentTilesAreApproximate)
{
    Network net = vggEPrefix(2);
    SchedulePricer pricer(net);
    ScheduleCost c = pricer.priceGroup(
        GroupSchedule{0, 1, 4, Dataflow::Independent, ~0u});
    // Halos are zero-padded away: no retained state, no recompute —
    // and the outputs differ from the reference at tile seams.
    EXPECT_EQ(c.storageBytes, 0);
    EXPECT_EQ(c.extraOps, 0);
    EXPECT_FALSE(c.exact());
}

TEST(SchedulePricer, TileAwareRecomputeReducesToPairwiseModel)
{
    // At 1-row tiles the per-boundary recompute sums to exactly the
    // legacy pairwise model over the group's layer range.
    Network net = alexnet();
    SchedulePricer pricer(net);
    const int stages = static_cast<int>(net.stages().size());
    for (int a = 0; a < stages; a++) {
        for (int b = a + 1; b < stages; b++) {
            ScheduleCost rec = pricer.priceGroup(
                GroupSchedule{a, b, 1, Dataflow::Pyramid, 0u});
            int fl, ll;
            groupLayerRange(net, StageGroup{a, b}, fl, ll);
            EXPECT_EQ(rec.extraOps,
                      pairwiseRecomputeExtraMultAdds(net, fl, ll))
                << "[" << a << "," << b << "]";
        }
    }
}

TEST(SchedulePricer, RepriceGroupEqualsFullReprice)
{
    Network net = vggEPrefix(5);
    SchedulePricer pricer(net);
    const int stages = static_cast<int>(net.stages().size());
    Schedule s = chainSchedule(partitionFromSizes({3, 2, 2}, stages));
    const ScheduleCost base = pricer.price(s);

    SweepOptions opt;
    for (const Schedule &n : neighborSchedules(net, s, opt)) {
        // Find the changed group (same partition shape required).
        if (schedulePartition(n) != schedulePartition(s))
            continue;
        size_t gi = 0;
        int changed = 0;
        for (size_t i = 0; i < s.groups.size(); i++) {
            if (!(n.groups[i] == s.groups[i])) {
                gi = i;
                changed++;
            }
        }
        ASSERT_EQ(changed, 1);
        ScheduleCost inc =
            pricer.repriceGroup(base, s.groups[gi], n.groups[gi]);
        ScheduleCost full = pricer.price(n);
        EXPECT_EQ(inc.storageBytes, full.storageBytes);
        EXPECT_EQ(inc.workingBytes, full.workingBytes);
        EXPECT_EQ(inc.transferBytes, full.transferBytes);
        EXPECT_EQ(inc.extraOps, full.extraOps);
        EXPECT_EQ(inc.latencyCycles, full.latencyCycles);
        EXPECT_EQ(inc.energyPj, full.energyPj);
        EXPECT_EQ(inc.approxGroups, full.approxGroups);
    }
}

TEST(SchedulePricer, PriceIsAdditiveOverGroups)
{
    Network net = alexnet();
    SchedulePricer pricer(net);
    const int stages = static_cast<int>(net.stages().size());
    Schedule s = chainSchedule(
        partitionFromSizes({2, 1, stages - 3}, stages));
    s.groups[2].tileH = 4;
    ScheduleCost whole = pricer.price(s);
    ScheduleCost sum;
    for (const GroupSchedule &g : s.groups)
        sum += pricer.priceGroup(g);
    EXPECT_EQ(whole.latencyCycles, sum.latencyCycles);
    EXPECT_EQ(whole.energyPj, sum.energyPj);
    EXPECT_EQ(whole.bufferBytes(), sum.bufferBytes());
}

} // namespace
} // namespace dse
} // namespace flcnn
