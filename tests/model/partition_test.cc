/** @file Partition enumeration and validation (Section V-B). */

#include <gtest/gtest.h>

#include <set>

#include "model/partition.hh"
#include "nn/zoo.hh"

namespace flcnn {
namespace {

TEST(Partition, CountsArePowersOfTwo)
{
    EXPECT_EQ(countPartitions(1), 1);
    EXPECT_EQ(countPartitions(2), 2);
    EXPECT_EQ(countPartitions(3), 4);
    EXPECT_EQ(countPartitions(8), 128);   // AlexNet (paper)
    EXPECT_EQ(countPartitions(7), 64);    // VGG five-conv prefix (paper)
}

TEST(Partition, EnumerationMatchesCount)
{
    for (int l = 1; l <= 10; l++) {
        auto all = enumeratePartitions(l);
        EXPECT_EQ(static_cast<int64_t>(all.size()), countPartitions(l));
    }
}

TEST(Partition, AllEnumeratedPartitionsAreValidAndDistinct)
{
    const int l = 6;
    auto all = enumeratePartitions(l);
    std::set<std::string> seen;
    for (const Partition &p : all) {
        EXPECT_EQ(validatePartition(p, l), "");
        std::string key;
        for (const StageGroup &g : p)
            key += std::to_string(g.firstStage) + "-" +
                   std::to_string(g.lastStage) + ";";
        EXPECT_TRUE(seen.insert(key).second) << "duplicate " << key;
    }
}

TEST(Partition, ExtremesArePresent)
{
    auto all = enumeratePartitions(4);
    EXPECT_EQ(all.front(), fullFusionPartition(4));
    EXPECT_EQ(all.back(), singletonPartition(4));
}

TEST(Partition, ThreeStageCaseMatchesPaperExample)
{
    // "if a network has three layers, we can choose to organize the
    // layers in groups of (1, 1, 1), (1, 2), (2, 1), or (3)".
    auto all = enumeratePartitions(3);
    std::set<std::string> strs;
    for (const Partition &p : all)
        strs.insert(partitionStr(p));
    EXPECT_TRUE(strs.count("(1, 1, 1)"));
    EXPECT_TRUE(strs.count("(1, 2)"));
    EXPECT_TRUE(strs.count("(2, 1)"));
    EXPECT_TRUE(strs.count("(3)"));
    EXPECT_EQ(strs.size(), 4u);
}

TEST(Partition, FromSizes)
{
    Partition p = partitionFromSizes({2, 1, 3}, 6);
    ASSERT_EQ(p.size(), 3u);
    EXPECT_EQ(p[0], (StageGroup{0, 1}));
    EXPECT_EQ(p[1], (StageGroup{2, 2}));
    EXPECT_EQ(p[2], (StageGroup{3, 5}));
    EXPECT_EQ(partitionStr(p), "(2, 1, 3)");
}

TEST(PartitionDeath, FromSizesMustCover)
{
    EXPECT_DEATH(partitionFromSizes({2, 2}, 5), "cover");
    EXPECT_DEATH(partitionFromSizes({0, 5}, 5), "positive");
}

TEST(Partition, Validation)
{
    EXPECT_NE(validatePartition({}, 3), "");
    EXPECT_NE(validatePartition({StageGroup{0, 0}}, 2), "");
    EXPECT_NE(validatePartition({StageGroup{1, 2}}, 3), "");
    EXPECT_NE(validatePartition({StageGroup{0, 1}, StageGroup{1, 2}}, 3),
              "");
    EXPECT_EQ(validatePartition({StageGroup{0, 1}, StageGroup{2, 2}}, 3),
              "");
}

TEST(Partition, GroupLayerRangeCoversCompanions)
{
    Network net("t", Shape{3, 16, 16});
    net.addConvBlock("c1", 4, 3, 1, 1);  // stage 0: layers 0..2
    net.addMaxPool("p1", 2, 2);          // stage 1: layer 3
    net.addConvBlock("c2", 8, 3, 1, 1);  // stage 2: layers 4..6
    int first, last;
    groupLayerRange(net, StageGroup{0, 1}, first, last);
    EXPECT_EQ(first, 0);
    EXPECT_EQ(last, 3);
    groupLayerRange(net, StageGroup{2, 2}, first, last);
    EXPECT_EQ(first, 4);
    EXPECT_EQ(last, 6);
}

TEST(Partition, AlexNetHas128Options)
{
    Network net = alexnet();
    EXPECT_EQ(countPartitions(static_cast<int>(net.stages().size())),
              128);
}

} // namespace
} // namespace flcnn
