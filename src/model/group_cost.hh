/**
 * @file
 * Shared per-(first, last) stage-group cost table for design-space
 * sweeps.
 *
 * Every cost the exploration tool assigns to a partition is a sum of
 * per-group terms, and a group's cost depends only on its contiguous
 * stage range [first, last]. A network with l fusable stages therefore
 * has only l * (l + 1) / 2 distinct group costs, while the sweep visits
 * 2^(l-1) partitions — pricing each range once turns the sweep's model
 * evaluations from O(2^l) into O(l^2) plus pure table lookups. The
 * Chain sweep (dse/sweep.hh) sums these cells down its cut-mask tree;
 * the LoopTree sweep's exact chain-front DP reads them too.
 */

#ifndef FLCNN_MODEL_GROUP_COST_HH
#define FLCNN_MODEL_GROUP_COST_HH

#include <cstdint>
#include <vector>

#include "model/pareto.hh"
#include "model/partition.hh"
#include "nn/network.hh"
#include "tensor/precision.hh"

namespace flcnn {

/** Pricing knobs of the storage/transfer cost model. */
struct GroupCostOptions
{
    /** Exact TilePlan-based reuse storage vs the closed form. */
    bool exactStorage = true;

    /** Add on-chip weight residency for multi-stage groups. */
    bool includeWeightStorage = false;

    /** Also tabulate the pairwise recompute-model extra mult-adds. */
    bool withRecompute = false;

    /**
     * Element type the accelerator stores and moves. Every storage and
     * transfer byte count in the underlying models is elements x 4
     * (fp32); the cache rescales both to this dtype's element size, so
     * fusion partitions re-rank per precision (int8 quarters every
     * byte cost while extraOps — arithmetic — is unchanged, shifting
     * the storage/transfer Pareto front). Fp32 is byte-identical to
     * the historical table.
     */
    Precision dtype = Precision::Fp32;
};

/**
 * Upper-triangular table of group costs, keyed by (firstStage,
 * lastStage). Construction evaluates the storage/transfer (and
 * optionally recompute) models once per range, in parallel; lookups
 * and partition pricing are O(1) per group afterwards.
 */
class GroupCostCache
{
  public:
    GroupCostCache(const Network &net, const GroupCostOptions &opt = {});

    int numStages() const { return stages_; }
    const GroupCostOptions &options() const { return opt_; }

    /** One range's tabulated costs, kept together so a sweep's lookup
     *  touches a single cache line per group. */
    struct Cell
    {
        int64_t storage = 0;   //!< reuse (+ optional weight) bytes
        int64_t transfer = 0;  //!< exploration-model transfer bytes
        int64_t extra = 0;     //!< recompute mult-adds (0 unless priced)
    };

    /** All costs of fusing stages [first, last]. */
    const Cell &
    cell(int first, int last) const
    {
        return cells_[idx(first, last)];
    }

    /** Storage bytes of fusing stages [first, last] (0 for a single
     *  stage; includes weight residency when configured). */
    int64_t
    storageBytes(int first, int last) const
    {
        return cell(first, last).storage;
    }

    /** Exploration-model transfer bytes of the group. */
    int64_t
    transferBytes(int first, int last) const
    {
        return cell(first, last).transfer;
    }

    /** Pairwise recompute extra mult-adds (0 unless withRecompute). */
    int64_t
    extraOps(int first, int last) const
    {
        return cell(first, last).extra;
    }

    /**
     * Price a whole partition by table lookups, filling @p d's
     * storageBytes / transferBytes / extraOps (the partition field is
     * left for the caller). Identical sums to pricing each group with
     * the underlying models directly.
     */
    void
    price(const Partition &p, DesignPoint &d) const
    {
        int64_t storage = 0, transfer = 0, extra = 0;
        for (const StageGroup &g : p) {
            const Cell &c = cell(g.firstStage, g.lastStage);
            storage += c.storage;
            transfer += c.transfer;
            extra += c.extra;
        }
        d.storageBytes = storage;
        d.transferBytes = transfer;
        d.extraOps = extra;
    }

  private:
    size_t
    idx(int first, int last) const
    {
        FLCNN_ASSERT(first >= 0 && last < stages_ && first <= last,
                     "stage range outside the cached network");
        return static_cast<size_t>(first) * stages_ + last;
    }

    int stages_ = 0;
    GroupCostOptions opt_;
    // Dense stages x stages table (only first <= last entries used);
    // at the 24-stage enumeration cap this is a few kilobytes.
    std::vector<Cell> cells_;
};

} // namespace flcnn

#endif // FLCNN_MODEL_GROUP_COST_HH
