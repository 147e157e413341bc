/** @file Pareto-front extraction. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "model/pareto.hh"

namespace flcnn {
namespace {

DesignPoint
pt(int64_t storage, int64_t transfer)
{
    DesignPoint p;
    p.storageBytes = storage;
    p.transferBytes = transfer;
    return p;
}

TEST(Pareto, KeepsOnlyNonDominated)
{
    auto front = paretoFront({pt(0, 100), pt(10, 90), pt(20, 95),
                              pt(30, 50), pt(40, 60)});
    ASSERT_EQ(front.size(), 3u);
    EXPECT_EQ(front[0].storageBytes, 0);
    EXPECT_EQ(front[1].storageBytes, 10);
    EXPECT_EQ(front[2].storageBytes, 30);
}

TEST(Pareto, SortedByStorage)
{
    auto front = paretoFront({pt(50, 10), pt(0, 100), pt(25, 40)});
    for (size_t i = 1; i < front.size(); i++)
        EXPECT_LT(front[i - 1].storageBytes, front[i].storageBytes);
}

TEST(Pareto, SinglePoint)
{
    auto front = paretoFront({pt(5, 5)});
    ASSERT_EQ(front.size(), 1u);
}

TEST(Pareto, DuplicateCoordinatesKeepOne)
{
    auto front = paretoFront({pt(5, 5), pt(5, 5), pt(5, 5)});
    EXPECT_EQ(front.size(), 1u);
}

TEST(Pareto, EqualStorageKeepsBetterTransfer)
{
    auto front = paretoFront({pt(5, 9), pt(5, 4)});
    ASSERT_EQ(front.size(), 1u);
    EXPECT_EQ(front[0].transferBytes, 4);
}

TEST(Pareto, FrontMembersDoNotDominateEachOther)
{
    std::vector<DesignPoint> pts;
    for (int i = 0; i < 50; i++)
        pts.push_back(pt((i * 37) % 101, (i * 53) % 97));
    auto front = paretoFront(pts);
    for (size_t a = 0; a < front.size(); a++)
        for (size_t b = 0; b < front.size(); b++)
            if (a != b) {
                EXPECT_FALSE(front[a].dominates(front[b]));
            }
}

TEST(Pareto, EveryInputIsDominatedByOrOnTheFront)
{
    std::vector<DesignPoint> pts;
    for (int i = 0; i < 64; i++)
        pts.push_back(pt((i * 29) % 83, (i * 41) % 89));
    auto front = paretoFront(pts);
    for (const auto &p : pts) {
        bool covered = false;
        for (const auto &f : front) {
            if (f.dominates(p) || (f.storageBytes == p.storageBytes &&
                                   f.transferBytes == p.transferBytes)) {
                covered = true;
                break;
            }
        }
        EXPECT_TRUE(covered);
    }
}

TEST(Pareto, DominatesSemantics)
{
    EXPECT_TRUE(pt(1, 1).dominates(pt(2, 2)));
    EXPECT_TRUE(pt(1, 2).dominates(pt(1, 3)));
    EXPECT_FALSE(pt(1, 1).dominates(pt(1, 1)));  // equal: no domination
    EXPECT_FALSE(pt(1, 3).dominates(pt(2, 2)));  // trade-off
}

TEST(Pareto, IndicesAgreeWithByValueOverload)
{
    std::vector<DesignPoint> pts;
    for (int i = 0; i < 200; i++)
        pts.push_back(pt((i * 37) % 151, (i * 53) % 149));
    auto front = paretoFront(pts);
    auto idx = paretoFrontIndices(pts);
    ASSERT_EQ(front.size(), idx.size());
    for (size_t i = 0; i < idx.size(); i++) {
        EXPECT_EQ(pts[idx[i]].storageBytes, front[i].storageBytes) << i;
        EXPECT_EQ(pts[idx[i]].transferBytes, front[i].transferBytes) << i;
    }
}

TEST(Pareto, IndicesPickLowestIndexAmongEqualCoordinates)
{
    auto idx = paretoFrontIndices({pt(7, 7), pt(5, 5), pt(5, 5)});
    ASSERT_EQ(idx.size(), 1u);
    EXPECT_EQ(idx[0], 1u);
}

TEST(Pareto, LargeInputPrefilterPreservesTheExactFront)
{
    // Past 1024 points paretoFrontIndices runs its bucket prefilter
    // before sorting; the front must match a brute-force dominance
    // scan exactly, including duplicate-coordinate representatives.
    std::vector<DesignPoint> pts;
    uint64_t state = 12345;
    auto next = [&state]() {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<int64_t>(state >> 40);
    };
    for (int i = 0; i < 5000; i++)
        pts.push_back(pt(next() % 100003, next() % 100019));
    // A dense cluster of duplicates and near-duplicates.
    for (int i = 0; i < 100; i++)
        pts.push_back(pt(50, 50 + (i % 3)));

    auto idx = paretoFrontIndices(pts);
    ASSERT_FALSE(idx.empty());

    // Brute force: a point is on the front iff nothing dominates it,
    // taking the lowest index among coordinate duplicates.
    std::vector<size_t> want;
    for (size_t i = 0; i < pts.size(); i++) {
        bool keep = true;
        for (size_t j = 0; j < pts.size() && keep; j++) {
            if (pts[j].dominates(pts[i]))
                keep = false;
            if (j < i && pts[j].storageBytes == pts[i].storageBytes &&
                pts[j].transferBytes == pts[i].transferBytes)
                keep = false;
        }
        if (keep)
            want.push_back(i);
    }
    std::sort(want.begin(), want.end(), [&](size_t a, size_t b) {
        return pts[a].storageBytes < pts[b].storageBytes;
    });
    EXPECT_EQ(idx, want);
}

TEST(Pareto, PrefilterTieAcrossBucketsIsGenuineDominance)
{
    // Crafted ties: one minimum-storage point, then >1024 points in
    // strictly higher storage buckets all *tying* its transfer. The
    // bucket prefilter drops a key when its transfer merely equals the
    // prefix minimum of strictly lower buckets — legitimate here,
    // because strictly lower bucket means strictly lower storage, so
    // the equal-transfer drop is genuine dominance, never a tie-break
    // against an equal point. The front must be exactly the one
    // cheapest point.
    std::vector<DesignPoint> pts;
    pts.push_back(pt(0, 100));
    for (int i = 1; i <= 2000; i++)
        pts.push_back(pt(int64_t{i} * 1000, 100));
    auto idx = paretoFrontIndices(pts);
    ASSERT_EQ(idx.size(), 1u);
    EXPECT_EQ(idx[0], 0u);
}

TEST(Pareto, PrefilterTieInsideOneBucketKeepsTheCheaperPoint)
{
    // Equal transfer *inside* a bucket must not self-eliminate: the
    // prefix minimum excludes the key's own bucket, so the bucket's
    // best-storage representative survives to the exact sorted scan.
    std::vector<DesignPoint> pts;
    for (int i = 0; i < 1500; i++)
        pts.push_back(pt(i, 100));  // one bucket span, all tying
    pts.push_back(pt(3, 7));
    auto idx = paretoFrontIndices(pts);
    // (0, 100) and (3, 7) are the non-dominated set.
    ASSERT_EQ(idx.size(), 2u);
    EXPECT_EQ(idx[0], 0u);
    EXPECT_EQ(idx[1], 1500u);
}

ParetoPoint3
pt3(int64_t x, int64_t y, int64_t z)
{
    return ParetoPoint3{x, y, z};
}

TEST(Pareto3, Semantics)
{
    EXPECT_TRUE(pt3(1, 1, 1).weaklyDominates(pt3(2, 2, 2)));
    EXPECT_TRUE(pt3(1, 1, 1).weaklyDominates(pt3(1, 1, 1)));
    EXPECT_FALSE(pt3(1, 1, 3).weaklyDominates(pt3(2, 2, 2)));
}

TEST(Pareto3, KeepsTradeOffsAndDropsDominated)
{
    auto idx = paretoFrontIndices3({pt3(0, 0, 9), pt3(0, 9, 0),
                                    pt3(9, 0, 0), pt3(5, 5, 5),
                                    pt3(9, 9, 9)});
    // (9,9,9) is dominated by everything; (5,5,5) by nothing.
    ASSERT_EQ(idx.size(), 4u);
    EXPECT_EQ(std::count(idx.begin(), idx.end(), size_t{4}), 0);
    EXPECT_EQ(std::count(idx.begin(), idx.end(), size_t{3}), 1);
}

TEST(Pareto3, DuplicatesKeepLowestIndex)
{
    auto idx = paretoFrontIndices3({pt3(7, 7, 7), pt3(5, 5, 5),
                                    pt3(5, 5, 5)});
    ASSERT_EQ(idx.size(), 1u);
    EXPECT_EQ(idx[0], 1u);
}

TEST(Pareto3, SortedByAscendingAxes)
{
    auto idx = paretoFrontIndices3({pt3(9, 0, 0), pt3(0, 9, 5),
                                    pt3(0, 5, 9), pt3(5, 5, 5)});
    std::vector<ParetoPoint3> pts = {pt3(9, 0, 0), pt3(0, 9, 5),
                                     pt3(0, 5, 9), pt3(5, 5, 5)};
    for (size_t i = 1; i < idx.size(); i++) {
        const ParetoPoint3 &a = pts[idx[i - 1]];
        const ParetoPoint3 &b = pts[idx[i]];
        EXPECT_TRUE(a.x < b.x || (a.x == b.x && a.y <= b.y));
    }
}

TEST(Pareto3, PhantomPointTieHazardInThePrefilter)
{
    // The >= 3-objective tie hazard: a low-x bucket holding (0, 0, 10)
    // and (0, 10, 0). Per-axis prefix minima would form the phantom
    // (0, 0, 0) and wrongly drop the genuine trade-off (5000, 1, 1)
    // from a higher bucket — neither real point dominates it. Pad past
    // the prefilter threshold with far-dominated filler and check the
    // trade-off survives.
    std::vector<ParetoPoint3> pts;
    pts.push_back(pt3(0, 0, 10));
    pts.push_back(pt3(0, 10, 0));
    pts.push_back(pt3(5000, 1, 1));
    for (int i = 0; i < 1200; i++)
        pts.push_back(pt3(6000 + i, 1000 + i, 1000 + i));
    auto idx = paretoFrontIndices3(pts);
    EXPECT_EQ(std::count(idx.begin(), idx.end(), size_t{2}), 1)
        << "tie-correct prefilter must keep the (y, z) trade-off";
    EXPECT_EQ(std::count(idx.begin(), idx.end(), size_t{0}), 1);
    EXPECT_EQ(std::count(idx.begin(), idx.end(), size_t{1}), 1);
}

TEST(Pareto3, LargeInputPrefilterMatchesBruteForce)
{
    std::vector<ParetoPoint3> pts;
    uint64_t state = 99991;
    auto next = [&state]() {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<int64_t>(state >> 40);
    };
    for (int i = 0; i < 4000; i++)
        pts.push_back(pt3(next() % 997, next() % 1009, next() % 1013));
    // Tie-heavy band: many points sharing axes pairwise.
    for (int i = 0; i < 200; i++)
        pts.push_back(pt3(i % 7, (i * 3) % 7, (i * 5) % 7));

    auto idx = paretoFrontIndices3(pts);
    ASSERT_FALSE(idx.empty());

    auto equal3 = [](const ParetoPoint3 &a, const ParetoPoint3 &b) {
        return a.x == b.x && a.y == b.y && a.z == b.z;
    };
    std::vector<size_t> want;
    for (size_t i = 0; i < pts.size(); i++) {
        bool keep = true;
        for (size_t j = 0; j < pts.size() && keep; j++) {
            if (j != i && pts[j].weaklyDominates(pts[i]) &&
                !equal3(pts[j], pts[i]))
                keep = false;
            if (j < i && equal3(pts[j], pts[i]))
                keep = false;
        }
        if (keep)
            want.push_back(i);
    }
    std::sort(want.begin(), want.end(), [&](size_t a, size_t b) {
        const ParetoPoint3 &p = pts[a], &q = pts[b];
        if (p.x != q.x)
            return p.x < q.x;
        if (p.y != q.y)
            return p.y < q.y;
        if (p.z != q.z)
            return p.z < q.z;
        return a < b;
    });
    EXPECT_EQ(idx, want);
}

TEST(Pareto3, EveryInputWeaklyDominatedBySomeFrontPoint)
{
    // The frontier-comparison tooling (the sweep's dominates-or-matches
    // CI gate) relies on this exact property.
    std::vector<ParetoPoint3> pts;
    for (int i = 0; i < 300; i++)
        pts.push_back(pt3((i * 37) % 101, (i * 53) % 97, (i * 71) % 89));
    auto idx = paretoFrontIndices3(pts);
    for (const ParetoPoint3 &p : pts) {
        bool covered = false;
        for (size_t f : idx) {
            if (pts[f].weaklyDominates(p)) {
                covered = true;
                break;
            }
        }
        EXPECT_TRUE(covered);
    }
}

} // namespace
} // namespace flcnn
