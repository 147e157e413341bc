#include "fusion/conv_row_driver.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "nn/autotune_net.hh"
#include "obs/metrics.hh"
#include "tune/tune_cache.hh"

namespace flcnn {

ConvRowDriver::ConvRowDriver(const Network &network,
                             const NetworkWeights &w, int first_layer,
                             int last_layer)
    : net(network), weights(w), first(first_layer),
      layers(static_cast<size_t>(last_layer - first_layer + 1))
{
}

void
ConvRowDriver::beginRun()
{
    const int64_t rev = TuneCache::global().revision();
    if (rev == plannedRev)
        return;
    plannedRev = rev;
    const Precision mode = precision ? precision->mode() : Precision::Fp32;
    for (size_t li = 0; li < layers.size(); li++) {
        const int layer = first + static_cast<int>(li);
        if (net.layer(layer).kind == LayerKind::Conv) {
            layers[li].plan = planConv(convLayerQuery(
                net, layer, mode, fastMath && mode == Precision::Fp32));
        }
    }
}

void
ConvRowDriver::stageRows(Layer &layer, int slot, const ConvRows &r)
{
    const Shape &s = r.src->shape();
    const Precision mode = precision->mode();
    layer.stage.configure(mode, s.c, s.h, s.w);
    // Serial and elementwise, so restaging a row is idempotent; a ring
    // range is staged as at most two contiguous runs of its slots.
    for (int y = r.stageBegin; y < r.stageEnd;) {
        const int at = r.ringRows > 0 ? y % r.ringRows : y;
        const int len = r.ringRows > 0
                            ? std::min(r.stageEnd - y, r.ringRows - at)
                            : r.stageEnd - y;
        if (mode == Precision::Int8) {
            stageConvInputI8(layer.stage, *r.src, precision->actQuant(slot),
                             at, at + len);
        } else {
            stageConvInputF16(layer.stage, *r.src, at, at + len);
        }
        y += len;
    }
}

int64_t
ConvRowDriver::run(int li, const ConvRows &r)
{
    const int layer_idx = first + li;
    const LayerSpec &spec = net.layer(layer_idx);
    const int slot = net.convSlot(layer_idx);
    const FilterBank &fb = weights.bank(slot);
    Layer &layer = layers[static_cast<size_t>(li)];
    const ConvPlan &plan = layer.plan;
    const int k = spec.kernel, s = spec.stride;
    FLCNN_ASSERT(k <= kMaxConvKernel,
                 "conv kernel exceeds the strip row table");
    const Precision mode = precision ? precision->mode() : Precision::Fp32;

    // Exactly one pack is live: the mode's. Non-fp32 modes first stage
    // the source rows this block reads.
    const PackedWeights *p32 = nullptr;
    const PackedWeightsI8 *p8 = nullptr;
    const PackedWeightsF16 *p16 = nullptr;
    const ActQuant *act = nullptr;
    int nb = 0;
    if (mode == Precision::Int8) {
        stageRows(layer, slot, r);
        act = &precision->actQuant(slot);
        p8 = &packCache.getI8(layer_idx, fb, spec.groups,
                              precision->weightScales(slot),
                              precision->scaleId(), plan.cfg.mrCap);
        nb = p8->numBlocks();
    } else if (mode == Precision::Fp16) {
        stageRows(layer, slot, r);
        p16 = &packCache.getF16(layer_idx, fb, spec.groups,
                                plan.cfg.mrCap);
        nb = p16->numBlocks();
    } else {
        p32 = &packCache.get(layer_idx, fb, spec.groups, 0,
                             plan.cfg.mrCap);
        nb = p32->numBlocks();
    }

    // One (filter-block, row) strip per work item: disjoint writes,
    // and each (filter, pixel) accumulator stays private in the blocked
    // kernel, so the block is bit-identical at every thread count.
    const int rows = r.rows;
    parallelFor(
        0, static_cast<int64_t>(nb) * rows,
        [&](int64_t lo, int64_t hi) {
            int row_idx[kMaxConvKernel];
            for (int64_t w = lo; w < hi; w++) {
                const int bi = static_cast<int>(w / rows);
                const int y = static_cast<int>(w % rows);
                for (int i = 0; i < k; i++) {
                    const int sr = y * s + r.srcRow0 + i;
                    row_idx[i] = r.ringRows > 0 ? sr % r.ringRows : sr;
                }
                float *dst = r.dst + y * r.rowStride;
                if (p8) {
                    convBlockRowI8(plan.bkI8, *p8, bi,
                                   dst + p8->block(bi).m0 * r.chStride,
                                   r.chStride, r.count, layer.stage,
                                   row_idx, r.x0, *act);
                } else if (p16) {
                    convBlockRowF16(plan.bk, *p16, bi,
                                    dst + p16->block(bi).m0 * r.chStride,
                                    r.chStride, r.count, layer.stage,
                                    row_idx, r.x0);
                } else {
                    convBlockRowTensor(plan.bk, *p32, bi,
                                       dst + p32->block(bi).m0 * r.chStride,
                                       r.chStride, r.count, *r.src, row_idx,
                                       r.x0);
                }
            }
        },
        plan.cfg.grain);

    // Tallied analytically so the parallel region stays race-free.
    return static_cast<int64_t>(fb.numChannels()) * k * k *
           fb.numFilters() * rows * r.count;
}

void
ConvRowDriver::recordPackCounters(MetricsRegistry &m,
                                  const std::string &scope)
{
    m.addCounter(scope, "pack_hits", packCache.hits() - lastPackHits);
    m.addCounter(scope, "pack_misses", packCache.misses() - lastPackMisses);
    lastPackHits = packCache.hits();
    lastPackMisses = packCache.misses();
}

} // namespace flcnn
