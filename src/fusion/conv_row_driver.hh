/**
 * @file
 * ConvRowDriver: the one place the fused executors run a conv plan.
 *
 * FusedExecutor hands the driver a ConvRows description for every
 * pyramid's conv block — plain values naming the layer's input ring,
 * which of its rows feed which output row, and where the results land
 * (the next windowed layer's ring, a fresh buffer or the group output)
 * — and the driver does the rest for every precision mode: stage the
 * rect written into the ring since the previous block into the mode's
 * compute format (kernels/conv_layer.hh), fetch the packed bank from
 * its WeightPackCache, and run the planned kernel over (filter-block x
 * output-row) work items on the thread pool.
 *
 * It also owns what goes with running a plan: the per-layer ConvPlan
 * (planConv(), refreshed only when the tune cache's revision moves or
 * a setter invalidates it), the per-layer staging buffers, and the
 * pack hit/miss deltas the executor reports as metrics.
 *
 * Determinism: every (filter-block, row) work item writes a disjoint
 * output strip, and the blocked kernels keep each (filter, pixel)
 * accumulator private in convPoint's (bias, n, i, j) order; staging is
 * serial and elementwise. Results are bit-identical to nn::runRange
 * under the same precision at every thread count. runRange itself
 * deliberately does not use the driver: it stays the independent
 * oracle the executor is tested against.
 */

#ifndef FLCNN_FUSION_CONV_ROW_DRIVER_HH
#define FLCNN_FUSION_CONV_ROW_DRIVER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/conv_layer.hh"
#include "kernels/weight_pack.hh"
#include "nn/network.hh"
#include "nn/precision.hh"
#include "nn/weights.hh"
#include "tensor/tensor.hh"
#include "tune/solver.hh"

namespace flcnn {

class MetricsRegistry;

/**
 * One block of a conv layer's output rows. Output row y (0 <= y <
 * rows) reads, for kernel row i, source row y * S + srcRow0 + i —
 * taken mod ringRows when ringRows > 0 (a full-width row ring) — at
 * columns x0 + t * S for t in [0, count). Filter m's pixel t lands at
 * dst[m * chStride + y' * rowStride + t], where y' = y, or (dstRow0 +
 * y) mod dstRing when the block is written into the consumer's ring.
 */
struct ConvRows
{
    const Tensor *src = nullptr;  //!< fp32 source (the layer's ring)
    int ringRows = 0;             //!< > 0: source rows wrap (ring)
    int srcRow0 = 0;              //!< source row of (y = 0, i = 0)
    int x0 = 0;                   //!< source column of pixel 0
    int rows = 0;                 //!< output rows in the block
    int count = 0;                //!< output pixels per row
    float *dst = nullptr;         //!< filter 0, row y' = 0, pixel 0
    int64_t chStride = 0;         //!< dst distance between filters
    int64_t rowStride = 0;        //!< dst distance between rows
    int dstRing = 0;              //!< > 0: dst rows wrap (ring)
    int dstRow0 = 0;              //!< ring row of output row 0
    /** Source rect rows [stageBegin, stageEnd) (mod ringRows) x
     *  columns [stageX0, stageX1) to convert into the precision's
     *  compute format before computing: what was written into the
     *  source since the previous block. Ignored in fp32. */
    int stageBegin = 0, stageEnd = 0;
    int stageX0 = 0, stageX1 = 0;
};

/** Plans, packs, stages and runs the conv layers of one fused range. */
class ConvRowDriver
{
  public:
    /** Drive the conv layers among [first, last] of @p net. The
     *  referenced objects must outlive the driver. */
    ConvRowDriver(const Network &net, const NetworkWeights &weights,
                  int first_layer, int last_layer);

    /** Run subsequent blocks under @p prec's precision (nullptr =
     *  fp32). The state must outlive the driver. */
    void
    setPrecision(const NetPrecision *prec)
    {
        precision = prec;
        plannedRev = -1;
    }

    /** Plan subsequent fp32 blocks onto the fast-math tier
     *  (tune/solver.hh); int8/fp16 stay exact regardless. */
    void
    setFastMath(bool enable)
    {
        fastMath = enable;
        plannedRev = -1;
    }

    /** Call at the top of every run: re-plans every conv layer when
     *  the tune cache changed since the last plan (planner lookups
     *  build shape-key strings, a heap allocation the steady-state
     *  serving path must not pay). */
    void beginRun();

    /** Compute one block of fused layer @p li's output rows; returns
     *  the multiply-adds performed (the layer's mults and adds). */
    int64_t run(int li, const ConvRows &rows);

    /** Add the pack-cache hits and misses since the previous call to
     *  @p m as "pack_hits" / "pack_misses" under @p scope. */
    void recordPackCounters(MetricsRegistry &m, const std::string &scope);

  private:
    /** Plan and staging buffer of one fused conv layer. */
    struct Layer
    {
        ConvPlan plan;
        ConvStage stage;
    };

    void stageRows(Layer &layer, int slot, const ConvRows &rows);

    const Network &net;
    const NetworkWeights &weights;
    int first;
    std::vector<Layer> layers;  //!< indexed by fused-layer index
    WeightPackCache packCache;  //!< keyed by network layer index
    const NetPrecision *precision = nullptr;
    bool fastMath = false;
    int64_t plannedRev = -1;    //!< TuneCache revision of the plans
                                //!< (-1 = never planned)
    int64_t lastPackHits = 0;   //!< packCache.hits() at the last record
    int64_t lastPackMisses = 0; //!< packCache.misses() likewise
};

} // namespace flcnn

#endif // FLCNN_FUSION_CONV_ROW_DRIVER_HH
