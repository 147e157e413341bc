/**
 * @file
 * Sweep engine: chain-mode bit-identity with a brute-force oracle, the
 * LoopTree surface's dominance over the chain front, executor spot
 * checks of priced schedules, neighbors, and the JSON emitter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "dse/exec.hh"
#include "dse/sweep.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "tensor/compare.hh"

namespace flcnn {
namespace dse {
namespace {

/** The brute-force Chain oracle: every enumeratePartitions() entry
 *  priced by GroupCostCache::price, in enumeration order. */
std::vector<DesignPoint>
bruteForcePoints(const Network &net, const GroupCostOptions &cost)
{
    const GroupCostCache cache(net, cost);
    std::vector<DesignPoint> points;
    for (const Partition &p :
         enumeratePartitions(static_cast<int>(net.stages().size()))) {
        DesignPoint d;
        cache.price(p, d);
        d.partition = p;
        points.push_back(std::move(d));
    }
    return points;
}

/** Chain-mode sweeps must reproduce the brute-force oracle bit for
 *  bit: same enumeration order, same costs, same fronts. */
void
expectChainBitIdentity(const Network &net, bool with_recompute,
                       Precision dtype)
{
    SweepOptions sopt;
    sopt.space = Space::Chain;
    sopt.cost.withRecompute = with_recompute;
    sopt.cost.dtype = dtype;
    SweepResult swept = runSweep(net, sopt);

    const std::vector<DesignPoint> points =
        bruteForcePoints(net, sopt.cost);
    ASSERT_EQ(swept.points.size(), points.size());
    EXPECT_EQ(swept.pointsVisited, static_cast<int64_t>(points.size()));
    for (size_t i = 0; i < points.size(); i++) {
        EXPECT_EQ(swept.points[i].storageBytes, points[i].storageBytes)
            << "point " << i;
        EXPECT_EQ(swept.points[i].transferBytes, points[i].transferBytes)
            << "point " << i;
        EXPECT_EQ(swept.points[i].extraOps, points[i].extraOps)
            << "point " << i;
        EXPECT_EQ(swept.points[i].partition, points[i].partition)
            << "point " << i;
    }
    const std::vector<DesignPoint> front = paretoFront(points);
    ASSERT_EQ(swept.legacyFront.size(), front.size());
    for (size_t i = 0; i < front.size(); i++) {
        EXPECT_EQ(swept.legacyFront[i].storageBytes, front[i].storageBytes)
            << "front " << i;
        EXPECT_EQ(swept.legacyFront[i].transferBytes,
                  front[i].transferBytes) << "front " << i;
        EXPECT_EQ(swept.legacyFront[i].partition, front[i].partition)
            << "front " << i;
    }
    // The fully-priced chain front mirrors the 2-objective front 1:1.
    ASSERT_EQ(swept.chainFront.size(), front.size());
    for (size_t i = 0; i < front.size(); i++) {
        EXPECT_EQ(swept.chainFront[i].cost.storageBytes,
                  front[i].storageBytes);
        EXPECT_EQ(swept.chainFront[i].cost.transferBytes,
                  front[i].transferBytes);
        EXPECT_EQ(schedulePartition(swept.chainFront[i].schedule),
                  front[i].partition);
    }
    // The 3-objective surface: every partition priced as a whole
    // schedule, then the latency/energy/buffer front.
    SchedulePricer pricer(net, sopt.cost, sopt.machine);
    std::vector<ScheduleCost> costs;
    std::vector<ParetoPoint3> axes;
    for (const DesignPoint &d : points) {
        costs.push_back(pricer.price(chainSchedule(d.partition)));
        const ScheduleCost &c = costs.back();
        axes.push_back(
            ParetoPoint3{c.latencyCycles, c.energyPj, c.bufferBytes()});
    }
    const std::vector<size_t> surface = paretoFrontIndices3(axes);
    ASSERT_EQ(swept.front.size(), surface.size());
    for (size_t i = 0; i < surface.size(); i++) {
        const ScheduleCost &want = costs[surface[i]];
        const ScheduleCost &got = swept.front[i].cost;
        EXPECT_EQ(schedulePartition(swept.front[i].schedule),
                  points[surface[i]].partition) << "surface " << i;
        EXPECT_EQ(got.latencyCycles, want.latencyCycles) << "surface " << i;
        EXPECT_EQ(got.energyPj, want.energyPj) << "surface " << i;
        EXPECT_EQ(got.bufferBytes(), want.bufferBytes()) << "surface " << i;
        EXPECT_EQ(got.transferBytes, want.transferBytes) << "surface " << i;
    }
}

TEST(Sweep, ChainBitIdenticalToExplorerAlexNet)
{
    expectChainBitIdentity(alexnet(), false, Precision::Fp32);
    expectChainBitIdentity(alexnet(), true, Precision::Fp32);
}

TEST(Sweep, ChainBitIdenticalToExplorerVggE13Stages)
{
    Network net = vggEPrefix(10);
    ASSERT_EQ(net.stages().size(), 13u);
    expectChainBitIdentity(net, false, Precision::Fp32);
    expectChainBitIdentity(net, true, Precision::Int8);
}

TEST(Sweep, ChainSurfaceIsParetoAndCoversAllPoints)
{
    SweepOptions opt;
    SweepResult res = runSweep(vggEPrefix(5), opt);
    ASSERT_GE(res.front.size(), 3u);
    for (size_t a = 0; a < res.front.size(); a++) {
        const ScheduleCost &ca = res.front[a].cost;
        for (size_t b = 0; b < res.front.size(); b++) {
            if (a == b)
                continue;
            const ScheduleCost &cb = res.front[b].cost;
            // Mutual non-domination (strict).
            EXPECT_FALSE(ca.latencyCycles <= cb.latencyCycles &&
                         ca.energyPj <= cb.energyPj &&
                         ca.bufferBytes() <= cb.bufferBytes() &&
                         (ca.latencyCycles < cb.latencyCycles ||
                          ca.energyPj < cb.energyPj ||
                          ca.bufferBytes() < cb.bufferBytes()));
        }
    }
}

/** Every chain-front point must be weakly dominated by some surfaced
 *  point — the "dominates or matches" guarantee. */
void
expectFrontCoversChain(const SweepResult &res)
{
    for (const SweepPoint &c : res.chainFront) {
        bool covered = false;
        for (const SweepPoint &f : res.front) {
            if (f.cost.latencyCycles <= c.cost.latencyCycles &&
                f.cost.energyPj <= c.cost.energyPj &&
                f.cost.bufferBytes() <= c.cost.bufferBytes()) {
                covered = true;
                break;
            }
        }
        EXPECT_TRUE(covered)
            << "chain point uncovered: "
            << c.cost.latencyCycles << " cyc, " << c.cost.energyPj
            << " pJ, " << c.cost.bufferBytes() << " B";
    }
}

TEST(Sweep, LoopTreeDominatesOrMatchesChainFront)
{
    Network net = vggEPrefix(5);
    SweepOptions opt;
    opt.space = Space::LoopTree;
    opt.pointBudget = 200'000;
    SweepResult res = runSweep(net, opt);
    EXPECT_GT(res.pointsVisited, 0);
    EXPECT_GT(res.frontierCapUsed, 0);
    ASSERT_GE(res.front.size(), 3u);
    expectFrontCoversChain(res);
    // Ascending-latency order.
    for (size_t i = 1; i < res.front.size(); i++)
        EXPECT_GE(res.front[i].cost.latencyCycles,
                  res.front[i - 1].cost.latencyCycles);
    // The chain front is exact and sorted by ascending storage.
    for (size_t i = 1; i < res.chainFront.size(); i++)
        EXPECT_GT(res.chainFront[i].cost.storageBytes,
                  res.chainFront[i - 1].cost.storageBytes);
}

TEST(Sweep, LoopTreeChainFrontMatchesLegacyValues)
{
    // The capped DP never touches the chain front's exactness: its
    // (storage, transfer) values must equal the brute-force chain
    // front exactly.
    Network net = vggEPrefix(5);
    SweepOptions opt;
    opt.space = Space::LoopTree;
    opt.pointBudget = 50'000;
    SweepResult res = runSweep(net, opt);
    const std::vector<DesignPoint> front =
        paretoFront(bruteForcePoints(net, opt.cost));
    ASSERT_EQ(res.chainFront.size(), front.size());
    for (size_t i = 0; i < front.size(); i++) {
        EXPECT_EQ(res.chainFront[i].cost.storageBytes,
                  front[i].storageBytes) << "front " << i;
        EXPECT_EQ(res.chainFront[i].cost.transferBytes,
                  front[i].transferBytes) << "front " << i;
    }
}

TEST(Sweep, RespectsPointBudgetOrder)
{
    Network net = vggEPrefix(5);
    SweepOptions opt;
    opt.space = Space::LoopTree;
    opt.pointBudget = 10'000;
    SweepResult res = runSweep(net, opt);
    // The cap derivation bounds DP combinations near the budget; allow
    // the exact (uncapped) chain DP's small additive term.
    EXPECT_LT(res.pointsVisited, 4 * opt.pointBudget);
    ASSERT_GE(res.front.size(), 3u);
    expectFrontCoversChain(res);
}

TEST(Sweep, ExecutorSpotChecksPricedMultiRowSchedule)
{
    // A retained multi-row-tile schedule the sweep prices must run on
    // the host executors bit-identically to the reference.
    Network net = vggEPrefix(3);
    const int stages = static_cast<int>(net.stages().size());
    Schedule s = chainSchedule(partitionFromSizes({2, stages - 2},
                                                  stages));
    s.groups[0].tileH = 3;
    s.groups[1].tileH = 2;
    EXPECT_EQ(scheduleExecutableReason(net, s), "");

    SchedulePricer pricer(net);
    ScheduleCost cost = pricer.price(s);
    EXPECT_GT(cost.bufferBytes(), 0);
    EXPECT_TRUE(cost.exact());

    Rng wrng(7);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inShape(0));
    Rng irng(7 ^ 0xbeef);
    input.fillRandom(irng);
    Tensor ref = runRange(net, weights, input, 0, net.numLayers() - 1);
    Tensor out = executeSchedule(net, weights, input, s);
    CompareResult cmp = compareTensors(ref, out);
    EXPECT_TRUE(cmp.match) << cmp.str();
}

TEST(Sweep, NonPyramidSchedulesAreNotExecutable)
{
    Network net = vggEPrefix(3);
    const int stages = static_cast<int>(net.stages().size());
    Schedule s = chainSchedule(partitionFromSizes({2, stages - 2},
                                                  stages));
    s.groups[0].flow = Dataflow::Independent;
    EXPECT_NE(scheduleExecutableReason(net, s), "");
    s.groups[0].flow = Dataflow::Pyramid;
    s.groups[0].retainMask = ~2u;  // recompute a meaningful boundary
    EXPECT_NE(scheduleExecutableReason(net, s), "");
}

TEST(Sweep, NeighborsAreValidDedupedAndLocal)
{
    Network net = vggEPrefix(5);
    const int stages = static_cast<int>(net.stages().size());
    Schedule s = chainSchedule(partitionFromSizes({3, 2, 2}, stages));
    SweepOptions opt;
    std::vector<Schedule> ns = neighborSchedules(net, s, opt);
    ASSERT_FALSE(ns.empty());
    bool saw_tile = false;
    std::vector<uint64_t> hashes;
    for (const Schedule &n : ns) {
        EXPECT_EQ(validateSchedule(net, n), "");
        // Neighbors keep the stage partition or change nothing else.
        EXPECT_EQ(schedulePartition(n), schedulePartition(s));
        for (const GroupSchedule &g : n.groups)
            saw_tile = saw_tile || g.tileH != 1;
        hashes.push_back(scheduleHash(net, n));
        EXPECT_NE(hashes.back(), scheduleHash(net, s));
    }
    EXPECT_TRUE(saw_tile);
    std::sort(hashes.begin(), hashes.end());
    EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()),
              hashes.end());
}

TEST(Sweep, WritesParetoJson)
{
    Network net = vggEPrefix(3);
    SweepOptions opt;
    opt.space = Space::LoopTree;
    opt.pointBudget = 20'000;
    SweepResult res = runSweep(net, opt);

    std::FILE *f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    writeParetoJson(f, net, opt, res);
    std::fseek(f, 0, SEEK_SET);
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    EXPECT_NE(text.find("\"schema\": \"flcnn-pareto-v1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"space\": \"looptree\""), std::string::npos);
    EXPECT_NE(text.find("\"frontier\""), std::string::npos);
    EXPECT_NE(text.find("\"chain_front\""), std::string::npos);
    EXPECT_NE(text.find("\"latency_cycles\""), std::string::npos);
}

} // namespace
} // namespace dse
} // namespace flcnn
