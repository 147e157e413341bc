#include "model/group_cost.hh"

#include "common/thread_pool.hh"
#include "model/recompute.hh"
#include "model/storage.hh"
#include "model/transfer.hh"

namespace flcnn {

GroupCostCache::GroupCostCache(const Network &net,
                               const GroupCostOptions &opt)
    : stages_(static_cast<int>(net.stages().size())), opt_(opt)
{
    FLCNN_ASSERT(stages_ >= 1, "network has no fusable stages");
    cells_.assign(
        static_cast<size_t>(stages_) * static_cast<size_t>(stages_),
        Cell{});

    // Each (first, last) cell is independent; the exact storage model
    // builds a TilePlan per multi-stage range, which dominates
    // construction, so spread the ranges across the pool. Writes are
    // disjoint per cell.
    parallelFor(
        0, static_cast<int64_t>(stages_),
        [&](int64_t alo, int64_t ahi) {
            for (int a = static_cast<int>(alo); a < ahi; a++) {
                for (int b = a; b < stages_; b++) {
                    const StageGroup g{a, b};
                    Cell &c = cells_[idx(a, b)];
                    c.storage =
                        groupReuseStorageBytes(net, g, opt_.exactStorage);
                    if (g.size() > 1 &&
                        (opt_.includeWeightStorage ||
                         opt_.withRecompute)) {
                        int first_layer, last_layer;
                        groupLayerRange(net, g, first_layer, last_layer);
                        if (opt_.includeWeightStorage) {
                            c.storage += net.weightBytesInRange(
                                first_layer, last_layer);
                        }
                        if (opt_.withRecompute) {
                            c.extra = pairwiseRecomputeExtraMultAdds(
                                net, first_layer, last_layer);
                        }
                    }
                    c.transfer = groupTransferBytes(net, g);
                    // The storage/transfer models count fp32 bytes
                    // (elements x 4, exactly); rescale to the priced
                    // dtype. extra is mult-adds, not bytes.
                    const int64_t eb = precisionElemBytes(opt_.dtype);
                    if (eb != 4) {
                        c.storage = c.storage / 4 * eb;
                        c.transfer = c.transfer / 4 * eb;
                    }
                }
            }
        });
}

} // namespace flcnn
