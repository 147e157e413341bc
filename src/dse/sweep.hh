/**
 * @file
 * Sweep engine over the tiling-schedule space.
 *
 * Two spaces:
 *
 *  - **Chain** is the paper's Section V tool: it enumerates all
 *    2^(l-1) stage partitions by walking the cut-mask tree, carrying
 *    the pricer's chain-cell sums and the fully priced per-range costs
 *    down each edge, so every point is O(1) amortized. Each point
 *    lands at its cut-mask index (the enumeratePartitions() order), so
 *    the result is the same at any thread count. The storage/transfer
 *    front is the Figure 7 frontier; the latency/energy/buffer axes of
 *    every point give the 3-objective surface.
 *
 *  - **LoopTree** explores the enlarged space (tile heights, per-layer
 *    retain-vs-recompute ladders, Independent tiles and, where one
 *    stride spans the group, the UniformStride dataflow)
 *    with a prefix dynamic program: F[j] = the pruned frontier of
 *    schedules covering stages [0, j). Costs are additive over groups,
 *    so extending a frontier member with a priced group variant is
 *    exact; pruning keeps each prefix's 3-objective front, truncated
 *    to a cap derived from the point budget so million-point sweeps
 *    stay interactive. The chain subspace's exact 2-objective front is
 *    swept separately (same prefix DP, no cap — exact for additive
 *    costs) and merged into the final pool, so the emitted surface
 *    dominates or matches the chain-only frontier by construction.
 */

#ifndef FLCNN_DSE_SWEEP_HH
#define FLCNN_DSE_SWEEP_HH

#include <cstdint>
#include <cstdio>
#include <memory>  // kept: perfbench/dse_vgge.cc uses std::unique_ptr
                   // without including it; drop at its next change
#include <vector>

#include "dse/pricer.hh"
#include "dse/schedule.hh"
#include "model/pareto.hh"

namespace flcnn {
namespace dse {

/** Which schedule space to sweep. */
enum class Space
{
    Chain,     //!< the paper's 2^(l-1) stage partitions, exhaustively
    LoopTree,  //!< tiles + per-layer recompute + alternative dataflows
};

const char *spaceName(Space s);

/** Sweep configuration. */
struct SweepOptions
{
    Space space = Space::Chain;

    /** Candidate pyramid tile heights (LoopTree space). Deduplicated
     *  and sorted; must contain 1 or include it implicitly (it is
     *  added when missing so the chain subspace stays reachable). */
    std::vector<int> tileHeights = {1, 2, 4, 8};

    /** Offer Block-Convolution independent tiles (LoopTree). */
    bool independentTiles = true;

    /** Approximate cap on priced candidate combinations in the
     *  LoopTree DP; the per-prefix frontier cap is derived from it
     *  (clamped to [4, 4096]). */
    int64_t pointBudget = 1'000'000;

    /** Storage/transfer cost-model switches (SchedulePricer). */
    GroupCostOptions cost;

    /** Latency-model knobs. */
    MachineModel machine;
};

/** One surfaced design. */
struct SweepPoint
{
    Schedule schedule;
    ScheduleCost cost;
};

/** Result of one sweep. */
struct SweepResult
{
    Space space = Space::Chain;
    int64_t pointsVisited = 0;  //!< priced candidates (all passes)
    double seconds = 0.0;       //!< wall time of the sweep proper
    int frontierCapUsed = 0;    //!< LoopTree per-prefix cap (0 in Chain)

    /** The latency/energy/buffer Pareto surface, ascending latency. */
    std::vector<SweepPoint> front;

    /** The chain subspace's exact storage/transfer front, fully
     *  priced — the paper's Figure 7 frontier on the new axes. */
    std::vector<SweepPoint> chainFront;

    /** Chain space only: every partition in cut-mask (enumeration)
     *  order, and its storage/transfer Pareto front sorted by ascending
     *  storage — the Figure 7 scatter and its solid line. */
    std::vector<DesignPoint> points;
    std::vector<DesignPoint> legacyFront;
};

/** Run a sweep over @p net's fusable stages. */
SweepResult runSweep(const Network &net, const SweepOptions &opt);

/**
 * Single-change neighbors of @p s inside the option'd space: per
 * group, adjacent tile heights, alternative dataflows, and one
 * meaningful retain-bit flip. Canonicalized and deduplicated; the
 * local-search companion to SchedulePricer::repriceGroup().
 */
std::vector<Schedule> neighborSchedules(const Network &net,
                                        const Schedule &s,
                                        const SweepOptions &opt);

/**
 * Write the sweep's Pareto surfaces as JSON (schema
 * "flcnn-pareto-v1"): run metadata, the 3-objective frontier, and the
 * chain front, each point carrying every cost axis plus its schedule
 * string and exactness flag.
 */
void writeParetoJson(std::FILE *f, const Network &net,
                     const SweepOptions &opt, const SweepResult &res);

} // namespace dse
} // namespace flcnn

#endif // FLCNN_DSE_SWEEP_HH
