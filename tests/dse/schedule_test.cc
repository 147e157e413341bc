/** @file Schedule IR: validation, canonicalization, hashing, chain lift. */

#include <gtest/gtest.h>

#include "dse/exec.hh"
#include "dse/schedule.hh"
#include "nn/zoo.hh"

namespace flcnn {
namespace dse {
namespace {

TEST(Schedule, ChainLiftRoundTrips)
{
    Network net = vggEPrefix(5);
    const int stages = static_cast<int>(net.stages().size());
    Partition p = partitionFromSizes({3, 2, 2}, stages);
    Schedule s = chainSchedule(p);
    EXPECT_EQ(validateSchedule(net, s), "");
    EXPECT_TRUE(isChainRestricted(net, s));
    EXPECT_EQ(schedulePartition(s), p);
}

TEST(Schedule, ValidateRejectsBadTileHeights)
{
    Network net = vggEPrefix(2);
    const int stages = static_cast<int>(net.stages().size());
    Schedule s = chainSchedule(partitionFromSizes({stages}, stages));
    s.groups[0].tileH = 0;
    EXPECT_NE(validateSchedule(net, s), "");
    s.groups[0].tileH = kMaxTileH + 1;
    EXPECT_NE(validateSchedule(net, s), "");
    s.groups[0].tileH = kMaxTileH;
    EXPECT_EQ(validateSchedule(net, s), "");
}

TEST(Schedule, ValidateRejectsGroupsBeyondTheRetainMask)
{
    // 70 stages of 1x1 convs as one group: more windowed layers than
    // the retain mask has bits. Validation says so instead of ending
    // the process in meaningfulRetainBits().
    constexpr int kStages = 70;
    Network net("conv1x1_chain", Shape{2, 4, 4});
    for (int i = 0; i < kStages; i++)
        net.add(LayerSpec::conv("c" + std::to_string(i),
                                i % 2 == 0 ? 5 : 3, 1));
    Schedule s = chainSchedule(partitionFromSizes({kStages}, kStages));
    EXPECT_NE(validateSchedule(net, s), "");
    EXPECT_NE(dse::scheduleExecutableReason(net, s), "");
    // Groups of 32 windowed layers still fit.
    Schedule ok = chainSchedule(partitionFromSizes(
        {kMaxGroupWindowed, kMaxGroupWindowed,
         kStages - 2 * kMaxGroupWindowed},
        kStages));
    EXPECT_EQ(validateSchedule(net, ok), "");
}

TEST(Schedule, ValidateRejectsNonPartitionGroups)
{
    Network net = vggEPrefix(5);
    // A gap in the stage cover.
    Schedule s;
    s.groups.push_back(GroupSchedule{0, 1});
    s.groups.push_back(GroupSchedule{3, 4});
    EXPECT_NE(validateSchedule(net, s), "");
}

TEST(Schedule, UniformStrideNeedsOneStride)
{
    // AlexNet fuses conv1 (stride 4) with pool1 (stride 2): mixed.
    Network net = alexnet();
    const int stages = static_cast<int>(net.stages().size());
    Schedule s = chainSchedule(partitionFromSizes({2, stages - 2},
                                                  stages));
    s.groups[0].flow = Dataflow::UniformStride;
    EXPECT_NE(validateSchedule(net, s), "");

    // VGG's stride-1 conv stacks qualify.
    Network vgg = vggEPrefix(3);
    const int vstages = static_cast<int>(vgg.stages().size());
    Schedule v = chainSchedule(partitionFromSizes({2, vstages - 2},
                                                  vstages));
    v.groups[0].flow = Dataflow::UniformStride;
    EXPECT_EQ(validateSchedule(vgg, v), "");
}

TEST(Schedule, MeaningfulBitsSkipTheGroupInput)
{
    // Two fused 3x3 stride-1 convs: two windowed layers, and only the
    // second's halo is retainable/recomputable — the first's halo is
    // the group input.
    Network net = vggEPrefix(2);
    GroupSchedule g{0, 1, 1, Dataflow::Pyramid, ~0u};
    const uint32_t bits = meaningfulRetainBits(net, g);
    EXPECT_EQ(bits & 1u, 0u);
    EXPECT_NE(bits & 2u, 0u);
}

TEST(Schedule, CanonicalFormForcesMootBits)
{
    Network net = vggEPrefix(2);
    const int stages = static_cast<int>(net.stages().size());
    Schedule all = chainSchedule(partitionFromSizes({stages}, stages));
    Schedule cleared = all;
    cleared.groups[0].retainMask &= ~1u;  // moot: the group-input halo
    EXPECT_EQ(canonicalSchedule(net, cleared),
              canonicalSchedule(net, all));
    EXPECT_EQ(scheduleHash(net, cleared), scheduleHash(net, all));

    // Clearing a *meaningful* bit is a different design.
    Schedule rec = all;
    rec.groups[0].retainMask &= ~2u;
    EXPECT_NE(scheduleHash(net, rec), scheduleHash(net, all));
}

TEST(Schedule, CanonicalFormPinsSingletonsAndNonPyramidMasks)
{
    Network net = vggEPrefix(5);
    const int stages = static_cast<int>(net.stages().size());
    Schedule s = chainSchedule(partitionFromSizes({stages - 1, 1},
                                                  stages));
    s.groups[0].flow = Dataflow::Independent;
    s.groups[0].retainMask = 0x5;  // meaningless under Independent
    s.groups[1].flow = Dataflow::UniformStride;  // singleton: moot
    Schedule c = canonicalSchedule(net, s);
    EXPECT_EQ(c.groups[0].retainMask, ~0u);
    EXPECT_EQ(c.groups[1].flow, Dataflow::Pyramid);
}

TEST(Schedule, HashSeparatesTileHeights)
{
    Network net = vggEPrefix(3);
    const int stages = static_cast<int>(net.stages().size());
    Schedule a = chainSchedule(partitionFromSizes({stages}, stages));
    Schedule b = a;
    b.groups[0].tileH = 4;
    EXPECT_NE(scheduleHash(net, a), scheduleHash(net, b));
}

TEST(Schedule, StrRendersExtendedNotation)
{
    Network net = vggEPrefix(5);
    const int stages = static_cast<int>(net.stages().size());
    Schedule s = chainSchedule(partitionFromSizes({3, 2, 2}, stages));
    EXPECT_EQ(scheduleStr(net, s), "(3, 2, 2)");
    s.groups[0].tileH = 4;
    s.groups[1].flow = Dataflow::UniformStride;
    EXPECT_EQ(scheduleStr(net, s), "(3:t4, 2:us, 2)");
}

} // namespace
} // namespace dse
} // namespace flcnn
