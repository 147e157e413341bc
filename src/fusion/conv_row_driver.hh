/**
 * @file
 * ConvRowDriver: the one place the fused executors run a conv plan.
 *
 * The pyramid (FusedExecutor, under reuse or recompute) and
 * row-streaming (LineBufferExecutor) dataflows differ in their loop
 * nests, not in how a block of conv output rows is computed. Each
 * hands the driver a ConvRows description — plain values naming the
 * fp32 source buffer, which of its rows feed which output row, and
 * where the results land — and the driver does the rest for every
 * precision mode: stage the source rows into the mode's compute format
 * (kernels/conv_layer.hh), fetch the packed bank from its
 * WeightPackCache, and run the planned kernel over (filter-block x
 * output-row) work items on the thread pool.
 *
 * It also owns what goes with running a plan: the per-layer ConvPlan
 * (planConv(), refreshed only when the tune cache's revision moves or
 * a setter invalidates it), the per-layer staging buffers, and the
 * pack hit/miss deltas the executors report as metrics.
 *
 * Determinism: every (filter-block, row) work item writes a disjoint
 * output strip, and the blocked kernels keep each (filter, pixel)
 * accumulator private in convPoint's (bias, n, i, j) order; staging is
 * serial and elementwise. Results are bit-identical to nn::runRange
 * under the same precision at every thread count. runRange itself
 * deliberately does not use the driver: it stays the independent
 * oracle the executors are tested against.
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
 * taken mod ringRows when ringRows > 0 (the line buffer's circular
 * store) — at columns x0 + t * S for t in [0, count). Filter m's pixel
 * t lands at dst[m * chStride + y * rowStride + t].
 */
struct ConvRows
{
    const Tensor *src = nullptr;  //!< fp32 source: tile or ring
    int ringRows = 0;             //!< > 0: source rows wrap (ring)
    int srcRow0 = 0;              //!< source row of (y = 0, i = 0)
    int x0 = 0;                   //!< source column of pixel 0
    int rows = 0;                 //!< output rows in the block
    int count = 0;                //!< output pixels per row
    float *dst = nullptr;         //!< filter 0, row 0, pixel 0
    int64_t chStride = 0;         //!< dst distance between filters
    int64_t rowStride = 0;        //!< dst distance between rows
    /** Source rows [stageBegin, stageEnd) (mod ringRows) to convert
     *  into the precision's compute format before computing; ignored
     *  in fp32. */
    int stageBegin = 0, stageEnd = 0;
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
