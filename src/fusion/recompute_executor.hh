/**
 * @file
 * RecomputeExecutor: the paper's *recompute* strategy (Section III-C).
 *
 * Each pyramid is evaluated completely independently: every layer
 * computes its entire input-tile-to-output-tile transformation from
 * scratch, recomputing the intermediate values that overlap with
 * neighboring pyramids instead of caching them. No reuse buffers exist;
 * the cost is redundant arithmetic (and redundant re-loading of the
 * overlapping first-layer input), which this executor measures so the
 * analytic recompute model can be validated against it (DESIGN.md
 * invariant 7).
 */

#ifndef FLCNN_FUSION_RECOMPUTE_EXECUTOR_HH
#define FLCNN_FUSION_RECOMPUTE_EXECUTOR_HH

#include <vector>

#include "common/opcount.hh"
#include "fusion/conv_row_driver.hh"
#include "fusion/plan.hh"
#include "nn/precision.hh"
#include "nn/reference.hh"
#include "nn/weights.hh"

namespace flcnn {

class MetricsRegistry;

/** Statistics from one recompute-model run. */
struct RecomputeRunStats
{
    int64_t loadedBytes = 0;   //!< DRAM bytes read (incl. re-reads)
    int64_t storedBytes = 0;   //!< DRAM bytes written
    int64_t workingBytes = 0;  //!< per-layer tile buffer capacity
    int64_t pyramids = 0;
    OpCount ops;               //!< includes all redundant recomputation
};

/** Functional fused-layer executor under the recompute strategy. */
class RecomputeExecutor
{
  public:
    RecomputeExecutor(const Network &net, const NetworkWeights &weights,
                      TilePlan plan);

    /** Evaluate the fusion group on @p input. */
    Tensor run(const Tensor &input, RecomputeRunStats *stats = nullptr);

    /** As run(), but write the group output into @p out (shape must
     *  equal plan().groupOutput()). Every output element is stored by
     *  some pyramid, so @p out need not be zero-filled — on the
     *  serving hot path it is an arena-backed view and this call
     *  performs no output allocation. */
    void runInto(const Tensor &input, Tensor *out,
                 RecomputeRunStats *stats = nullptr);

    const TilePlan &plan() const { return tplan; }

    /**
     * Run subsequent pyramids under @p prec's precision mode: conv
     * source tiles are staged into the mode's compute format and the
     * mode's kernels produce the output tile
     * (fusion/conv_row_driver.hh).
     * Results are bit-identical to the precision reference. Pass
     * nullptr for plain fp32. The state must outlive the executor.
     */
    void setPrecision(const NetPrecision *prec) { conv.setPrecision(prec); }

    /**
     * Opt in to the fast-math conv tier (tune/solver.hh) for
     * subsequent fp32 runs: FMA kernels, ULP-bounded rather than
     * bit-identical. Off by default; int8/fp16 modes stay exact.
     */
    void setFastMath(bool enable) { conv.setFastMath(enable); }

    /** Record per-fused-layer breakdowns of subsequent runs into @p m
     *  (same scopes and names as FusedExecutor::setMetrics). Pass
     *  nullptr to detach. */
    void setMetrics(MetricsRegistry *m) { metrics = m; }

  private:
    void computeLayer(int li, int r, int c, const Tensor &input);

    const Network &net;
    TilePlan tplan;
    ConvRowDriver conv;  //!< runs every conv layer's plan

    /** tiles[li]: output tile of fused layer li for the current pyramid,
     *  anchored at (outY[r].begin, outX[c].begin). tiles[-1] conceptually
     *  is the loaded input tile, stored in inTile. */
    std::vector<Tensor> tiles;
    std::vector<Span> tileY, tileX;
    Tensor inTile;
    Span inTileY, inTileX;
    RecomputeRunStats curStats;
    MetricsRegistry *metrics = nullptr;
};

} // namespace flcnn

#endif // FLCNN_FUSION_RECOMPUTE_EXECUTOR_HH
