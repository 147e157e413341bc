/**
 * @file
 * Analytical pricer for tiling schedules.
 *
 * Extends the chain-partition cost table (model/group_cost.hh) to the
 * full schedule IR: any (stage range, tile height) pair is tabulated
 * once — exact TilePlan halo geometry per boundary, the pairwise
 * recompute model generalized to multi-row tiles, a pipelined latency
 * estimate through sim/pipeline, and the energy split through
 * model/energy — and every dataflow/retain-mask variant over that
 * range prices as cheap arithmetic on the table. Costs are additive
 * over groups, which is what makes incremental re-pricing (swap one
 * group, subtract old, add new) and the sweep's prefix DP exact.
 *
 * Chain anchor: a {tileH = 1, Pyramid, all-retain} group prices
 * bit-identically to its GroupCostCache cell on the storage / transfer
 * axes, and its all-recompute variant on the recompute axis (under the
 * default exact storage model), so the chain-restricted subspace
 * reproduces the paper's Figure 7 costs exactly.
 */

#ifndef FLCNN_DSE_PRICER_HH
#define FLCNN_DSE_PRICER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/opcount.hh"
#include "dse/schedule.hh"
#include "model/energy.hh"
#include "model/group_cost.hh"
#include "nn/network.hh"

namespace flcnn {
namespace dse {

/** First-order machine knobs for the latency estimate (the cost-model
 *  analog of the accelerator sim's DSP/DRAM parameters). */
struct MachineModel
{
    /** Parallel multiply-accumulate lanes (one MAC each per cycle). */
    int macLanes = 256;

    /** DRAM bytes moved per accelerator cycle. */
    int dramBytesPerCycle = 16;
};

/** Fully priced cost vector of a schedule (or of one group). Every
 *  field is additive over groups. */
struct ScheduleCost
{
    int64_t storageBytes = 0;   //!< retained halo (+ weight) bytes
    int64_t workingBytes = 0;   //!< assembly tiles + fresh-output staging
    int64_t transferBytes = 0;  //!< DRAM feature traffic per image
    int64_t extraOps = 0;       //!< recompute mult-adds actually incurred
    int64_t latencyCycles = 0;  //!< pipelined makespan, summed over groups
    int64_t energyPj = 0;       //!< estimateEnergy() per group, summed
    int approxGroups = 0;       //!< groups whose dataflow is approximate

    /** Total on-chip footprint: the buffer axis of the surface. */
    int64_t bufferBytes() const { return storageBytes + workingBytes; }

    /** True when every group's dataflow computes the reference values
     *  (Independent tiles zero-pad their seams and do not). */
    bool exact() const { return approxGroups == 0; }

    ScheduleCost &operator+=(const ScheduleCost &o);
    ScheduleCost &operator-=(const ScheduleCost &o);
};

/**
 * Prices schedules over one network. Construction builds the chain
 * cost table (exposed via chainCache() for the Chain sweep's
 * storage/transfer axes); (range, tileH) tables build lazily on first
 * use. Not thread-safe — the sweep owns one pricer per thread-free
 * phase.
 */
class SchedulePricer
{
  public:
    explicit SchedulePricer(const Network &net,
                            const GroupCostOptions &cost = {},
                            const MachineModel &machine = {});

    const Network &network() const { return net_; }
    const GroupCostCache &chainCache() const { return cache_; }
    const GroupCostOptions &costOptions() const { return cost_; }
    const MachineModel &machine() const { return machine_; }

    /** Price one group's schedule (all fields of the returned cost are
     *  this group's share). */
    ScheduleCost priceGroup(const GroupSchedule &g);

    /** Price a whole (validated) schedule: the sum over its groups. */
    ScheduleCost price(const Schedule &s);

    /**
     * Incremental re-pricing: the cost of @p base's schedule with one
     * group changed from @p oldg to @p newg (same stage range). Exact
     * — additivity makes it equal to a full re-price — and O(changed
     * group) instead of O(schedule).
     */
    ScheduleCost repriceGroup(const ScheduleCost &base,
                              const GroupSchedule &oldg,
                              const GroupSchedule &newg);

    /** Number of (range, tileH) tables built so far. */
    size_t tablesBuilt() const { return tables_.size(); }

  private:
    /** One halo boundary (a windowed layer beyond the group's first):
     *  what retaining costs in bytes vs what recomputing costs in
     *  mult-adds, at this table's tile height. All byte fields are
     *  dtype-scaled. */
    struct Boundary
    {
        int64_t blBytes = 0;       //!< column (left) reuse buffer
        int64_t btBytes = 0;       //!< row (top) reuse buffer
        int64_t recomputeOps = 0;  //!< pairwise extra mult-adds
        int64_t haloTraffic = 0;   //!< SRAM bytes/image when retained
    };

    /** Tabulated facts about fusing one stage range at one tile
     *  height, shared by every dataflow/mask variant over it. */
    struct GroupTable
    {
        int64_t transferBytes = 0;
        int64_t weightBytes = 0;        //!< 0 unless multi-stage + opted in
        int64_t workingBytes = 0;
        int64_t bands = 0;              //!< ceil(outH / tileH) tile rows
        int64_t onchipBytes = 0;        //!< base SRAM traffic per image
        int64_t intermediateBytes = 0;  //!< inter-layer plane bytes
        int64_t latencyCycles = 0;      //!< pipelined makespan, all-retain
        OpCount ops;                    //!< reference arithmetic
        std::vector<Boundary> boundaries;
    };

    const GroupTable &table(int first_stage, int last_stage, int tile_h);
    GroupTable buildTable(int first_stage, int last_stage, int tile_h);

    const Network &net_;
    GroupCostOptions cost_;
    MachineModel machine_;
    GroupCostCache cache_;
    std::unordered_map<uint64_t, GroupTable> tables_;
};

} // namespace dse
} // namespace flcnn

#endif // FLCNN_DSE_PRICER_HH
