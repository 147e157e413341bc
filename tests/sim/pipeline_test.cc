/** @file Pyramid pipeline scheduler tests (Figure 6 semantics). */

#include <gtest/gtest.h>

#include "sim/pipeline.hh"

namespace flcnn {
namespace {

TEST(Pipeline, SingleStageSerializes)
{
    auto sched = schedulePyramidPipeline(
        5, 1, [](int64_t, int) { return int64_t{10}; });
    EXPECT_EQ(sched.makespan(), 50);
    EXPECT_EQ(sched.stageBusy(0), 50);
    EXPECT_DOUBLE_EQ(sched.stageUtilization(0), 1.0);
}

TEST(Pipeline, UniformStagesClassicFormula)
{
    // P pyramids through S balanced stages of duration d:
    // makespan = (P + S - 1) * d.
    const int64_t P = 8;
    const int S = 4;
    const int64_t d = 7;
    auto sched = schedulePyramidPipeline(
        P, S, [&](int64_t, int) { return d; });
    EXPECT_EQ(sched.makespan(), (P + S - 1) * d);
}

TEST(Pipeline, BottleneckStageDominates)
{
    // Stage 1 is 10x slower: makespan ~ P * 100 + fill.
    auto sched = schedulePyramidPipeline(16, 3, [](int64_t, int s) {
        return s == 1 ? int64_t{100} : int64_t{10};
    });
    EXPECT_EQ(sched.makespan(), 10 + 16 * 100 + 10);
    EXPECT_GT(sched.stageUtilization(1), 0.95);
    EXPECT_LT(sched.stageUtilization(0), 0.15);
}

TEST(Pipeline, DependenciesRespected)
{
    auto sched = schedulePyramidPipeline(
        4, 3, [](int64_t p, int s) { return (p + 1) * (s + 1); }, true);
    for (int64_t p = 0; p < 4; p++) {
        for (int s = 0; s < 3; s++) {
            const StageSlot &sl = sched.slot(p, s);
            EXPECT_EQ(sl.end - sl.start, (p + 1) * (s + 1));
            if (s > 0) {
                EXPECT_GE(sl.start, sched.slot(p, s - 1).end);
            }
            if (p > 0) {
                EXPECT_GE(sl.start, sched.slot(p - 1, s).end);
            }
        }
    }
}

TEST(Pipeline, ZeroDurationStagesPassThrough)
{
    auto sched = schedulePyramidPipeline(6, 3, [](int64_t, int s) {
        return s == 1 ? int64_t{0} : int64_t{5};
    });
    // Stage 1 is free: behaves like a 2-stage pipeline.
    EXPECT_EQ(sched.makespan(), (6 + 2 - 1) * 5);
}

TEST(Pipeline, MakespanLowerBounds)
{
    auto cyc = [](int64_t p, int s) { return (p * 13 + s * 7) % 23 + 1; };
    auto sched = schedulePyramidPipeline(20, 5, cyc);
    for (int s = 0; s < 5; s++)
        EXPECT_GE(sched.makespan(), sched.stageBusy(s));
    // Critical path of pyramid 0 plus pipeline drain of the last.
    int64_t p0 = 0;
    for (int s = 0; s < 5; s++)
        p0 += cyc(0, s);
    EXPECT_GE(sched.makespan(), p0);
}

TEST(Pipeline, FirstPyramidStartsEveryStageInOrder)
{
    auto sched = schedulePyramidPipeline(
        3, 4, [](int64_t, int) { return int64_t{5}; }, true);
    // Figure 6: pyramid 2 starts its first stage as soon as pyramid 1
    // completes that stage.
    EXPECT_EQ(sched.slot(1, 0).start, sched.slot(0, 0).end);
    EXPECT_EQ(sched.slot(2, 0).start, sched.slot(1, 0).end);
}

TEST(Pipeline, GanttRendersOneLinePerStage)
{
    auto sched = schedulePyramidPipeline(
        4, 2, [](int64_t, int) { return int64_t{3}; }, true);
    std::string g = sched.gantt({"load", "compute"});
    EXPECT_NE(g.find("load"), std::string::npos);
    EXPECT_NE(g.find("compute"), std::string::npos);
    EXPECT_EQ(std::count(g.begin(), g.end(), '\n'), 2);
}

TEST(PipelineDeath, SlotAccessWithoutKeepPanics)
{
    auto sched = schedulePyramidPipeline(
        4, 2, [](int64_t, int) { return int64_t{3}; }, false);
    EXPECT_DEATH(sched.slot(0, 0), "without slots");
}

TEST(PipelineDeath, SlotIndexOutOfRangePanics)
{
    auto sched = schedulePyramidPipeline(
        4, 2, [](int64_t, int) { return int64_t{3}; }, true);
    EXPECT_DEATH(sched.slot(4, 0), "out of range");
    EXPECT_DEATH(sched.slot(-1, 0), "out of range");
    EXPECT_DEATH(sched.slot(0, 2), "out of range");
    EXPECT_DEATH(sched.slot(0, -1), "out of range");
}

TEST(PipelineDeath, GanttWithoutKeptSlotsPanics)
{
    auto sched = schedulePyramidPipeline(
        4, 2, [](int64_t, int) { return int64_t{3}; }, false);
    EXPECT_DEATH(sched.gantt({"a", "b"}), "kept slots");
}

TEST(PipelineDeath, GanttNamesArityChecked)
{
    auto sched = schedulePyramidPipeline(
        4, 2, [](int64_t, int) { return int64_t{3}; }, true);
    EXPECT_DEATH(sched.gantt({"only-one"}), "one name per stage");
}

TEST(PipelineDeath, GanttNonPositiveWidthPanics)
{
    // Regression: width <= 0 used to wrap to a huge size_t in the
    // line constructor (UB / bad_alloc) instead of a clear error.
    auto sched = schedulePyramidPipeline(
        4, 2, [](int64_t, int) { return int64_t{3}; }, true);
    EXPECT_DEATH(sched.gantt({"a", "b"}, 0), "width");
    EXPECT_DEATH(sched.gantt({"a", "b"}, -7), "width");
}

TEST(Pipeline, GanttTinyWidthStillRenders)
{
    auto sched = schedulePyramidPipeline(
        4, 2, [](int64_t, int) { return int64_t{3}; }, true);
    std::string g = sched.gantt({"a", "b"}, 1);
    EXPECT_EQ(std::count(g.begin(), g.end(), '\n'), 2);
}

TEST(Pipeline, SharedResourceSerializes)
{
    // Two stages sharing one channel cannot overlap even across
    // different pyramids.
    std::vector<int> res{0, -1, 0};
    auto sched = schedulePyramidPipeline(
        4, 3, [](int64_t, int) { return int64_t{10}; }, true, res);
    for (int64_t p = 0; p < 4; p++) {
        for (int64_t q = 0; q < 4; q++) {
            const StageSlot &a = sched.slot(p, 0);
            const StageSlot &b = sched.slot(q, 2);
            EXPECT_TRUE(a.end <= b.start || b.end <= a.start)
                << "load " << p << " overlaps store " << q;
        }
    }
    // Without the constraint the schedule is strictly shorter.
    auto free_sched = schedulePyramidPipeline(
        4, 3, [](int64_t, int) { return int64_t{10}; });
    EXPECT_GT(sched.makespan(), free_sched.makespan());
}

TEST(Pipeline, ZeroDurationIgnoresResource)
{
    std::vector<int> res{0, 0};
    auto sched = schedulePyramidPipeline(
        3, 2, [](int64_t, int s) { return s == 0 ? int64_t{5}
                                                 : int64_t{0}; },
        false, res);
    // The zero-duration stage never claims the channel.
    EXPECT_EQ(sched.makespan(), 15);
}

TEST(PipelineDeath, ResourceArityChecked)
{
    std::vector<int> res{0};
    EXPECT_DEATH(schedulePyramidPipeline(
                     2, 3, [](int64_t, int) { return int64_t{1}; },
                     false, res),
                 "one resource id per stage");
}

TEST(Pipeline, GapFillingKeepsStageSlotsMonotone)
{
    // Regression: stage_free[s] must never regress when claim()
    // gap-fills a shared-resource slot into an earlier idle window.
    // Stages 0 and 2 share a DMA channel; pyramid durations are skewed
    // so later claims on the channel find idle windows between earlier
    // ones. Every stage must still process pyramids strictly in order.
    std::vector<int> res{0, -1, 0};
    auto cycles = [](int64_t p, int s) -> int64_t {
        // Long stage-2 transfers early on leave gaps that short
        // stage-0 loads of later pyramids try to slot into.
        if (s == 0)
            return p < 2 ? 40 : 3;
        if (s == 1)
            return 25;
        return p < 2 ? 60 : 5;
    };
    auto sched = schedulePyramidPipeline(8, 3, cycles, true, res);
    for (int s = 0; s < 3; s++) {
        for (int64_t p = 1; p < 8; p++) {
            EXPECT_GE(sched.slot(p, s).start, sched.slot(p - 1, s).end)
                << "stage " << s << " started pyramid " << p
                << " before finishing pyramid " << p - 1;
        }
    }
    // The shared channel itself must also stay exclusive.
    for (int64_t p = 0; p < 8; p++) {
        for (int64_t q = 0; q < 8; q++) {
            const StageSlot &a = sched.slot(p, 0);
            const StageSlot &b = sched.slot(q, 2);
            EXPECT_TRUE(a.end <= b.start || b.end <= a.start)
                << "load " << p << " overlaps store " << q;
        }
    }
}

TEST(Pipeline, StageSlotsMonotoneUnderRandomResourceContention)
{
    // Property sweep: arbitrary durations (including zero) and
    // arbitrary resource sharing never break per-stage serialization.
    uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (int iter = 0; iter < 50; iter++) {
        const int stages = 2 + static_cast<int>(next() % 4);
        const int64_t pyr = 2 + static_cast<int64_t>(next() % 6);
        std::vector<int> res(static_cast<size_t>(stages));
        for (int &r : res)
            r = static_cast<int>(next() % 3) - 1;  // -1, 0, or 1
        std::vector<std::vector<int64_t>> dur(
            static_cast<size_t>(pyr),
            std::vector<int64_t>(static_cast<size_t>(stages)));
        for (auto &row : dur)
            for (int64_t &d : row)
                d = static_cast<int64_t>(next() % 12);
        auto sched = schedulePyramidPipeline(
            pyr, stages,
            [&](int64_t p, int s) {
                return dur[static_cast<size_t>(p)]
                          [static_cast<size_t>(s)];
            },
            true, res);
        for (int s = 0; s < stages; s++)
            for (int64_t p = 1; p < pyr; p++)
                ASSERT_GE(sched.slot(p, s).start,
                          sched.slot(p - 1, s).end)
                    << "iter " << iter << " stage " << s << " pyramid "
                    << p;
    }
}

TEST(Pipeline, EmptyPipeline)
{
    auto sched = schedulePyramidPipeline(
        0, 3, [](int64_t, int) { return int64_t{3}; });
    EXPECT_EQ(sched.makespan(), 0);
}

} // namespace
} // namespace flcnn
