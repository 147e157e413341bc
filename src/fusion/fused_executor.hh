/**
 * @file
 * FusedExecutor: functional model of the fused-layer accelerator
 * (Listings 3 and 4 of the paper) and the one executor behind every
 * fused engine. The TilePlan picks the pyramid shape and Section
 * III-C's strategy: a retaining plan (the default) is the reuse model,
 * a plan built with retain = false recomputes every overlap, and a
 * retaining plan whose tip spans the whole output row (one pyramid
 * column) is a line buffer. There is no branch on plan shape.
 *
 * The executor evaluates a fusion group pyramid by pyramid, in
 * row-major order. Every windowed (Conv / Pool) layer holds its input
 * in one full-width row ring: global row gy lives in slot gy %
 * ringRows, column gx at gx. At each pyramid the layer's producer
 * writes its fresh output rect straight into those slots, and the
 * layer's conv or pool reads its whole tile in place. The rows and
 * columns that earlier pyramids left in the ring are what the paper
 * keeps in BT and BL; the rest of the tile is fresh. The plan's BL/BT
 * sizes (TilePlan::reuseBufferBytes) stay the paper's cost model; the
 * ring is how this executor holds them.
 *
 * ringRows is the plan's maxTileH (taller only when K < S makes the
 * producer write rows the tile skips). Every tile, together with the
 * rows written at the same pyramid row, spans at most ringRows rows,
 * so a write never lands on a slot a read of the current or a later
 * pyramid still needs. That also removes the hazard of the paper's
 * Listing 4, whose BT update overwrites rows that later pyramids in
 * the same row still read.
 *
 * Output placement: a layer writes into the ring of the next windowed
 * layer, or into the group output when no windowed layer follows. The
 * ReLU / LRN layers in between run in place on the written rect, and a
 * Pad in between shifts the write by its padding and then only zeroes
 * its border rows and columns, so no intermediate plane exists beside
 * the rings. The group's first layer loads its fresh rect from DRAM.
 *
 * Under reuse every intermediate value is computed exactly once, which
 * the optional coverage tracker verifies; a recompute plan computes
 * overlapping values more than once by design.
 */

#ifndef FLCNN_FUSION_FUSED_EXECUTOR_HH
#define FLCNN_FUSION_FUSED_EXECUTOR_HH

#include <string>
#include <vector>

#include "common/opcount.hh"
#include "fusion/conv_row_driver.hh"
#include "fusion/plan.hh"
#include "nn/precision.hh"
#include "nn/reference.hh"
#include "nn/weights.hh"
#include "sim/trace.hh"

namespace flcnn {

class MetricsRegistry;

/** Statistics from one fused run. */
struct FusedRunStats
{
    int64_t loadedBytes = 0;   //!< DRAM bytes read (group input)
    int64_t storedBytes = 0;   //!< DRAM bytes written (group output)
    int64_t reuseBytes = 0;    //!< BL + BT capacity (the paper's cost;
                               //!< 0 on a recompute plan)
    int64_t workingBytes = 0;  //!< buffers this executor allocates
                               //!< (FusedExecutor::bufferBytes())
    int64_t pyramids = 0;      //!< number of pyramids evaluated
    OpCount ops;               //!< arithmetic performed
};

/** Functional fused-layer executor for one fusion group (reuse,
 *  recompute or line buffer, as the TilePlan says). */
class FusedExecutor
{
  public:
    /**
     * Prepare an executor for @p plan over @p net with @p weights. The
     * referenced objects must outlive the executor.
     */
    FusedExecutor(const Network &net, const NetworkWeights &weights,
                  TilePlan plan);

    /** Evaluate the fusion group on @p input (the first fused layer's
     *  full input plane). Returns the group output plane. */
    Tensor run(const Tensor &input, FusedRunStats *stats = nullptr);

    /**
     * As run(), but write the group output into @p out, whose shape
     * must equal plan().groupOutput(). Every output element is
     * produced by the run (the coverage tracker proves it), so @p out
     * need not be zero-filled — on the serving hot path it is an
     * arena-backed view and this call performs no allocation.
     */
    void runInto(const Tensor &input, Tensor *out,
                 FusedRunStats *stats = nullptr);

    const TilePlan &plan() const { return tplan; }

    /** Bytes of the windowed layers' input rings. */
    int64_t ringBytes() const;

    /** Bytes of every buffer the executor allocates: the rings and
     *  the LRN input scratch. */
    int64_t bufferBytes() const;

    /**
     * Enable per-element coverage tracking (test instrumentation).
     * After run(), coverageReport() returns an empty string when every
     * produced element was computed exactly once and no element twice.
     * Meaningful for retaining plans only: a recompute plan reports
     * its recomputed elements.
     */
    void setTrackCoverage(bool enable) { trackCoverage = enable; }
    std::string coverageReport() const;

    /**
     * Run subsequent pyramids under @p prec's precision mode: the rect
     * written into each conv layer's ring is staged into the mode's
     * compute format and the mode's kernels produce the fresh region
     * (fusion/conv_row_driver.hh); every other layer computes in fp32
     * as always. Results are bit-identical to the precision reference
     * (nn::runRange with the same @p prec).
     * Pass nullptr (the default state) for plain fp32. The pointed-to
     * state must outlive the executor.
     */
    void setPrecision(const NetPrecision *prec) { conv.setPrecision(prec); }

    /**
     * Opt in to the fast-math conv tier (tune/solver.hh) for
     * subsequent fp32 runs: FMA kernels with reordered accumulators,
     * ULP-bounded against the exact path rather than bit-identical.
     * Off by default; never applies to int8/fp16 precision modes,
     * which stay bit-exact regardless.
     */
    void setFastMath(bool enable) { conv.setFastMath(enable); }

    /** Stream every DRAM access of subsequent runs to @p sink
     *  (group-input reads and group-output writes; see sim/trace.hh
     *  for the address map). Pass nullptr to disable. */
    void setTraceSink(TraceSink sink) { traceSink = std::move(sink); }

    /**
     * Record per-fused-layer breakdowns of subsequent runs into @p m
     * (scopes "layer:<i>:<name>"): dram_read_bytes /
     * dram_write_bytes, mults / adds / compares, wall_seconds, and
     * buffer gauges (ring_bytes: the layer's input ring, 0 for
     * non-windowed layers; reuse_bytes: the plan's BL + BT cost, 0 on
     * a recompute plan),
     * plus run-level pyramid and weight-pack hit/miss counters under
     * the "" scope. @p scope_prefix is prepended to every scope (the
     * partition executor passes "group:<g>:" so its groups stay
     * distinguishable in one registry). Pass nullptr to detach. The
     * registry must outlive the executor or the next setMetrics().
     */
    void
    setMetrics(MetricsRegistry *m, std::string scope_prefix = "")
    {
        metrics = m;
        metricsPrefix = std::move(scope_prefix);
    }

  private:
    /** A plane as the executor holds it: element (ch, gy, gx) lives at
     *  base + ch * chStride + y * rowStride + gx + shift, where y is
     *  gy + shift, taken mod ring for a ring. */
    struct PlaneRef
    {
        float *base = nullptr;
        int64_t chStride = 0;
        int64_t rowStride = 0;
        int ring = 0;
        int shift = 0;

        float *
        at(int ch, int gy, int gx) const
        {
            const int y = ring > 0 ? (gy + shift) % ring : gy + shift;
            return base + ch * chStride + y * rowStride + gx + shift;
        }
    };

    /** Per-fused-layer state. */
    struct LayerState
    {
        Tensor ring;         //!< windowed: C x ringRows x W input ring
        int ringRows = 0;
        Tensor scratch;      //!< LRN: the rect's input, read while the
                             //!< layer writes its output in place
        int sinkLayer = -1;  //!< whose ring the output lands in (-1:
                             //!< the group output)
        int shift = 0;       //!< padding of the Pads on the way there
        Span freshY, freshX; //!< output rect of the current pyramid

        // Coverage instrumentation (output plane of this layer).
        std::vector<uint8_t> coverage;
    };

    void computeWindowed(int li, int r, int c);
    void runPad(int li, int r, int c);
    void runPointwise(int li, int r, int c);

    /** Load rows @p y x columns @p x of the group input into fused
     *  layer 0's ring (a DRAM read). */
    void loadInput(Span y, Span x);

    /** Where fused layer li reads its input / writes its output. */
    PlaneRef inRef(int li);
    PlaneRef outRef(int li);

    /** Count one computation of every element of layer li's output
     *  rect (coverage tracking only). */
    void markCoverage(int li, Span oy, Span ox);

    /** Trace one row segment per (channel, row) of a DRAM rect. */
    void traceRect(bool write, const Tensor &plane, uint64_t base, Span y,
                   Span x);

    const Network &net;
    TilePlan tplan;
    ConvRowDriver conv;         //!< runs every conv layer's plan
    std::vector<LayerState> states;
    const Tensor *groupInput = nullptr;
    Tensor *groupOutput = nullptr;
    FusedRunStats curStats;
    bool trackCoverage = false;
    std::string coverageMsg;
    TraceSink traceSink;
    MetricsRegistry *metrics = nullptr;
    std::string metricsPrefix;   //!< prepended to every metric scope
};

} // namespace flcnn

#endif // FLCNN_FUSION_FUSED_EXECUTOR_HH
