/**
 * @file
 * GroupCostCache: every table cell equals a direct model evaluation,
 * and pricing a partition by lookups equals the per-partition models.
 */

#include <gtest/gtest.h>

#include "model/group_cost.hh"
#include "model/recompute.hh"
#include "model/storage.hh"
#include "model/transfer.hh"
#include "nn/zoo.hh"

namespace flcnn {
namespace {

TEST(GroupCostCache, CellsEqualDirectModelCalls)
{
    Network net = vggEPrefix(4);
    const int stages = static_cast<int>(net.stages().size());
    for (bool exact : {true, false}) {
        GroupCostOptions opt;
        opt.exactStorage = exact;
        opt.withRecompute = true;
        GroupCostCache cache(net, opt);
        ASSERT_EQ(cache.numStages(), stages);
        for (int a = 0; a < stages; a++) {
            for (int b = a; b < stages; b++) {
                const StageGroup g{a, b};
                EXPECT_EQ(cache.storageBytes(a, b),
                          groupReuseStorageBytes(net, g, exact))
                    << a << ".." << b;
                EXPECT_EQ(cache.transferBytes(a, b),
                          groupTransferBytes(net, g))
                    << a << ".." << b;
                int64_t extra = 0;
                if (g.size() > 1) {
                    int fl, ll;
                    groupLayerRange(net, g, fl, ll);
                    extra = pairwiseRecomputeExtraMultAdds(net, fl, ll);
                }
                EXPECT_EQ(cache.extraOps(a, b), extra) << a << ".." << b;
            }
        }
    }
}

TEST(GroupCostCache, WeightResidencyAddsOnlyToMultiStageGroups)
{
    Network net = vggEPrefix(4);
    GroupCostOptions plain;
    plain.exactStorage = false;
    GroupCostOptions weighted = plain;
    weighted.includeWeightStorage = true;
    GroupCostCache a(net, plain), b(net, weighted);
    for (int first = 0; first < a.numStages(); first++) {
        for (int last = first; last < a.numStages(); last++) {
            if (first == last) {
                EXPECT_EQ(a.storageBytes(first, last),
                          b.storageBytes(first, last));
            } else {
                int fl, ll;
                groupLayerRange(net, StageGroup{first, last}, fl, ll);
                EXPECT_EQ(b.storageBytes(first, last) -
                              a.storageBytes(first, last),
                          net.weightBytesInRange(fl, ll));
            }
        }
    }
}

TEST(GroupCostCache, PricePartitionEqualsDirectPartitionModels)
{
    Network net = alexnet();
    GroupCostOptions opt;
    opt.withRecompute = true;
    GroupCostCache cache(net, opt);
    const int stages = cache.numStages();
    for (const Partition &p : enumeratePartitions(stages)) {
        DesignPoint d;
        cache.price(p, d);
        EXPECT_EQ(d.storageBytes,
                  partitionReuseStorageBytes(net, p, true));
        EXPECT_EQ(d.transferBytes, partitionTransferBytes(net, p));
        EXPECT_EQ(d.extraOps,
                  partitionPairwiseRecomputeExtraMultAdds(net, p));
    }
}

TEST(GroupCostCache, DtypeScalesStorageAndTransferNotOps)
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
    GroupCostCache f32(net, f32opt), i8(net, i8opt), f16(net, f16opt);
    for (int a = 0; a < f32.numStages(); a++) {
        for (int b = a; b < f32.numStages(); b++) {
            EXPECT_EQ(i8.storageBytes(a, b), f32.storageBytes(a, b) / 4)
                << a << ".." << b;
            EXPECT_EQ(i8.transferBytes(a, b),
                      f32.transferBytes(a, b) / 4);
            EXPECT_EQ(f16.storageBytes(a, b),
                      f32.storageBytes(a, b) / 2);
            EXPECT_EQ(f16.transferBytes(a, b),
                      f32.transferBytes(a, b) / 2);
            EXPECT_EQ(i8.extraOps(a, b), f32.extraOps(a, b));
            EXPECT_EQ(f16.extraOps(a, b), f32.extraOps(a, b));
        }
    }
}

} // namespace
} // namespace flcnn
