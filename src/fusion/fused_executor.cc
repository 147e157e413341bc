#include "fusion/fused_executor.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/clock.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/metrics.hh"

namespace flcnn {

namespace {

/** Parallel grain, in rows, for a row loop whose rows each cost
 *  @p row_cost element operations: small rects stay on one thread
 *  instead of waking the pool for a few hundred elements. */
int64_t
rowGrain(int64_t row_cost)
{
    constexpr int64_t kChunkCost = 4096;
    return std::max<int64_t>(1, kChunkCost / std::max<int64_t>(1, row_cost));
}

} // namespace

FusedExecutor::FusedExecutor(const Network &network,
                             const NetworkWeights &w, TilePlan plan)
    : net(network), tplan(std::move(plan)),
      conv(network, w, tplan.firstLayer(), tplan.lastLayer())
{
    const int n = tplan.numFusedLayers();
    states.resize(static_cast<size_t>(n));
    for (int li = n - 1; li >= 0; li--) {
        const LayerGeom &g = tplan.geom(li);
        const LayerSpec &spec = net.layer(g.layerIdx);
        LayerState &st = states[static_cast<size_t>(li)];

        // The output lands in the next windowed layer's ring, or in the
        // group output; ReLU / LRN on the way share it, and a Pad on
        // the way shifts it by its padding.
        if (li < n - 1) {
            const LayerGeom &next = tplan.geom(li + 1);
            const LayerSpec &nspec = net.layer(next.layerIdx);
            const LayerState &nst = states[static_cast<size_t>(li + 1)];
            if (next.windowed) {
                st.sinkLayer = li + 1;
            } else {
                st.sinkLayer = nst.sinkLayer;
                st.shift = nst.shift +
                           (nspec.kind == LayerKind::Pad ? nspec.pad : 0);
            }
        }
        if (spec.kind == LayerKind::LRN) {
            st.scratch = Tensor(g.outPlane.c, std::max(1, g.maxFreshOutH),
                                std::max(1, g.maxFreshOutW));
        }

        if (g.windowed) {
            // The rows live at one pyramid row: the tile plus whatever
            // the producer writes there (wider than the tile only when
            // K < S leaves rows between windows).
            int rows = 1;
            for (int r = 0; r < tplan.numPyramidRows(); r++) {
                if (!g.isActiveY(r))
                    continue;
                Span live = g.inY[static_cast<size_t>(r)];
                if (li > 0) {
                    const Span wy = tplan.geom(li - 1).freshOutY(r);
                    if (!wy.empty()) {
                        live.begin = std::min(live.begin, wy.begin);
                        live.end = std::max(live.end, wy.end);
                    }
                }
                rows = std::max(rows, live.width());
            }
            st.ringRows = rows;
            st.ring = Tensor(g.inPlane.c, rows, g.inPlane.w);
        }
    }
}

int64_t
FusedExecutor::ringBytes() const
{
    int64_t bytes = 0;
    for (const LayerState &st : states)
        bytes += st.ring.shape().bytes();
    return bytes;
}

int64_t
FusedExecutor::bufferBytes() const
{
    int64_t bytes = 0;
    for (const LayerState &st : states)
        bytes += st.ring.shape().bytes() + st.scratch.shape().bytes();
    return bytes;
}

FusedExecutor::PlaneRef
FusedExecutor::outRef(int li)
{
    const LayerState &st = states[static_cast<size_t>(li)];
    PlaneRef p;
    p.shift = st.shift;
    if (st.sinkLayer < 0) {
        const Shape &s = groupOutput->shape();
        p.base = groupOutput->data();
        p.chStride = static_cast<int64_t>(s.h) * s.w;
        p.rowStride = s.w;
        return p;
    }
    LayerState &own = states[static_cast<size_t>(st.sinkLayer)];
    p.base = own.ring.data();
    p.rowStride = own.ring.shape().w;
    p.chStride = own.ringRows * p.rowStride;
    p.ring = own.ringRows;
    return p;
}

FusedExecutor::PlaneRef
FusedExecutor::inRef(int li)
{
    if (li > 0)
        return outRef(li - 1);
    // The group input is only ever read through this reference.
    const Shape &s = groupInput->shape();
    PlaneRef p;
    p.base = const_cast<float *>(groupInput->data());
    p.chStride = static_cast<int64_t>(s.h) * s.w;
    p.rowStride = s.w;
    return p;
}

void
FusedExecutor::traceRect(bool write, const Tensor &plane, uint64_t base,
                         Span y, Span x)
{
    if (!traceSink || y.empty() || x.empty())
        return;
    for (int ch = 0; ch < plane.shape().c; ch++) {
        for (int gy = y.begin; gy < y.end; gy++) {
            traceSink(DramAccess{
                write,
                base + static_cast<uint64_t>(plane.idx(ch, gy, x.begin)) * 4,
                static_cast<int64_t>(x.width()) * 4});
        }
    }
}

void
FusedExecutor::loadInput(Span y, Span x)
{
    if (y.empty() || x.empty())
        return;
    LayerState &st = states[0];
    const int channels = groupInput->shape().c;
    for (int ch = 0; ch < channels; ch++) {
        for (int gy = y.begin; gy < y.end; gy++) {
            const float *src = groupInput->rowPtr(ch, gy, x.begin);
            std::copy(src, src + x.width(),
                      st.ring.data() +
                          st.ring.idx(ch, gy % st.ringRows, x.begin));
        }
    }
    curStats.loadedBytes +=
        static_cast<int64_t>(y.width()) * x.width() * channels * 4;
    traceRect(false, *groupInput, traceInputBase, y, x);
}

void
FusedExecutor::markCoverage(int li, Span oy, Span ox)
{
    if (!trackCoverage)
        return;
    const Shape &out = tplan.geom(li).outPlane;
    std::vector<uint8_t> &cov = states[static_cast<size_t>(li)].coverage;
    for (int ch = 0; ch < out.c; ch++)
        for (int gy = oy.begin; gy < oy.end; gy++)
            for (int gx = ox.begin; gx < ox.end; gx++)
                cov[static_cast<size_t>(
                    (static_cast<int64_t>(ch) * out.h + gy) * out.w + gx)]++;
}

void
FusedExecutor::computeWindowed(int li, int r, int c)
{
    const LayerGeom &g = tplan.geom(li);
    const LayerSpec &spec = net.layer(g.layerIdx);
    LayerState &st = states[static_cast<size_t>(li)];

    // The rect written into this layer's ring at this pyramid.
    Span wy, wx;
    if (li == 0) {
        wy = g.freshInY(r);
        wx = g.freshInX(c);
        loadInput(wy, wx);
    } else {
        wy = states[static_cast<size_t>(li) - 1].freshY;
        wx = states[static_cast<size_t>(li) - 1].freshX;
    }

    const Span oy = g.freshOutY(r);
    const Span ox = g.freshOutX(c);
    st.freshY = oy;
    st.freshX = ox;
    if (oy.empty() || ox.empty())
        return;

    const int s = spec.stride, k = spec.kernel;
    const PlaneRef out = outRef(li);
    if (spec.kind == LayerKind::Conv) {
        // int8/fp16 stage exactly the rect written since the previous
        // block: every ring element is converted once per write.
        const bool staged = !wy.empty() && !wx.empty();
        const int64_t macs = conv.run(
            li, {.src = &st.ring,
                 .ringRows = st.ringRows,
                 .srcRow0 = oy.begin * s,
                 .x0 = ox.begin * s,
                 .rows = oy.width(),
                 .count = ox.width(),
                 .dst = out.ring > 0 ? out.base + ox.begin + out.shift
                                     : out.at(0, oy.begin, ox.begin),
                 .chStride = out.chStride,
                 .rowStride = out.rowStride,
                 .dstRing = out.ring,
                 .dstRow0 = oy.begin + out.shift,
                 .stageBegin = wy.begin,
                 .stageEnd = staged ? wy.end : wy.begin,
                 .stageX0 = wx.begin,
                 .stageX1 = wx.end});
        curStats.ops.mults += macs;
        curStats.ops.adds += macs;
    } else {
        // Disjoint (ch, row) output strips. One pass over the row per
        // window tap (i, j) with the ring row pointer hoisted: every
        // output still folds its window in the canonical (i, j) order
        // (the tap loops merely sit outside the vectorizable column
        // loop), so results stay bit-identical to poolPoint().
        const int rows = oy.width(), w = ox.width();
        const bool is_max = spec.poolMode == PoolMode::Max;
        parallelFor(
            0, static_cast<int64_t>(g.outPlane.c) * rows,
            [&](int64_t lo, int64_t hi) {
                for (int64_t item = lo; item < hi; item++) {
                    const int ch = static_cast<int>(item / rows);
                    const int gy = oy.begin + static_cast<int>(item % rows);
                    float *dst = out.at(ch, gy, ox.begin);
                    if (is_max) {
                        const float *rp = st.ring.rowPtr(
                            ch, (gy * s) % st.ringRows, ox.begin * s);
                        for (int t = 0; t < w; t++)
                            dst[t] = rp[t * s];
                    } else {
                        std::fill(dst, dst + w, 0.0f);
                    }
                    for (int i = 0; i < k; i++) {
                        const float *rp = st.ring.rowPtr(
                            ch, (gy * s + i) % st.ringRows, ox.begin * s);
                        for (int j = 0; j < k; j++) {
                            if (is_max) {
                                for (int t = 0; t < w; t++)
                                    dst[t] = std::max(dst[t], rp[t * s + j]);
                            } else {
                                for (int t = 0; t < w; t++)
                                    dst[t] += rp[t * s + j];
                            }
                        }
                    }
                    if (!is_max) {
                        const float n = static_cast<float>(k * k);
                        for (int t = 0; t < w; t++)
                            dst[t] /= n;
                    }
                }
            },
            rowGrain(static_cast<int64_t>(w) * k * k));
        const int64_t win = static_cast<int64_t>(k) * k * g.outPlane.c *
                            rows * w;
        if (is_max)
            curStats.ops.compares += win;
        else
            curStats.ops.adds += win;
    }

    markCoverage(li, oy, ox);
}

void
FusedExecutor::runPad(int li, int r, int c)
{
    const LayerGeom &g = tplan.geom(li);
    const LayerSpec &spec = net.layer(g.layerIdx);
    LayerState &st = states[static_cast<size_t>(li)];
    const int p = spec.pad;

    const Span oy = g.freshOutY(r);
    const Span ox = g.freshOutX(c);
    st.freshY = oy;
    st.freshX = ox;
    if (oy.empty() || ox.empty())
        return;

    // The source rect in input coordinates (possibly empty on borders).
    const Span sy{std::max(oy.begin - p, 0), std::min(oy.end - p, g.inPlane.h)};
    const Span sx{std::max(ox.begin - p, 0), std::min(ox.end - p, g.inPlane.w)};
    const bool any = !sy.empty() && !sx.empty();
    if (li == 0) {
        if (any) {
            curStats.loadedBytes += static_cast<int64_t>(sy.width()) *
                                    sx.width() * g.inPlane.c * 4;
        }
        traceRect(false, *groupInput, traceInputBase, sy, sx);
    } else {
        // The producer's rect is exactly the interior it wrote.
        const LayerState &prod = states[static_cast<size_t>(li) - 1];
        FLCNN_ASSERT(any ? prod.freshY == sy && prod.freshX == sx
                         : prod.freshY.empty() || prod.freshX.empty(),
                     "pad interior differs from the producer's rect");
    }

    // The producer already wrote the interior, shifted by p, into the
    // shared output; zero the borders (and, at the group head, copy the
    // interior from the group input) on disjoint (ch, row) strips.
    const PlaneRef in = inRef(li), out = outRef(li);
    const int w = ox.width();
    const int left = sx.begin + p - ox.begin;
    const int inner = sx.width();
    // Elements a row writes: past the group head only its borders.
    const int row_cost = li == 0 ? w : w - inner + 1;
    parallelFor(
        0, static_cast<int64_t>(g.outPlane.c) * oy.width(),
        [&](int64_t lo, int64_t hi) {
            for (int64_t item = lo; item < hi; item++) {
                const int ch = static_cast<int>(item / oy.width());
                const int gy = oy.begin + static_cast<int>(item % oy.width());
                float *dst = out.at(ch, gy, ox.begin);
                const int y = gy - p;
                if (!any || y < sy.begin || y >= sy.end) {
                    std::fill(dst, dst + w, 0.0f);
                    continue;
                }
                std::fill(dst, dst + left, 0.0f);
                if (li == 0) {
                    const float *src = in.at(ch, y, sx.begin);
                    std::copy(src, src + inner, dst + left);
                }
                std::fill(dst + left + inner, dst + w, 0.0f);
            }
        },
        rowGrain(row_cost));

    markCoverage(li, oy, ox);
}

void
FusedExecutor::runPointwise(int li, int r, int c)
{
    const LayerGeom &g = tplan.geom(li);
    const LayerSpec &spec = net.layer(g.layerIdx);
    LayerState &st = states[static_cast<size_t>(li)];

    const Span oy = g.freshOutY(r);
    const Span ox = g.freshOutX(c);
    if (li > 0) {
        const LayerState &prod = states[static_cast<size_t>(li) - 1];
        FLCNN_ASSERT(oy.empty() || ox.empty() ||
                         (prod.freshY == oy && prod.freshX == ox),
                     "pointwise fresh rect mismatch with producer");
    }
    st.freshY = oy;
    st.freshX = ox;
    if (oy.empty() || ox.empty())
        return;

    const int channels = g.outPlane.c, rows = oy.width(), w = ox.width();
    if (li == 0) {
        // A pointwise layer heading the group streams from DRAM.
        curStats.loadedBytes +=
            static_cast<int64_t>(rows) * w * channels * 4;
        traceRect(false, *groupInput, traceInputBase, oy, ox);
    }

    // In place on the shared output buffer, except at the group head,
    // which reads the group input.
    const PlaneRef in = inRef(li), out = outRef(li);
    if (spec.kind == LayerKind::ReLU) {
        parallelFor(
            0, static_cast<int64_t>(channels) * rows,
            [&](int64_t lo, int64_t hi) {
                for (int64_t item = lo; item < hi; item++) {
                    const int ch = static_cast<int>(item / rows);
                    const int gy = oy.begin + static_cast<int>(item % rows);
                    const float *src = in.at(ch, gy, ox.begin);
                    float *dst = out.at(ch, gy, ox.begin);
                    for (int t = 0; t < w; t++)
                        dst[t] = std::max(0.0f, src[t]);
                }
            },
            rowGrain(w));
        curStats.ops.compares += static_cast<int64_t>(channels) * rows * w;
        return;
    }

    // LRN: cross-channel at each point. Each row first copies its input
    // into the scratch, so the in-place update never reads a neighbor
    // channel it already overwrote.
    const int half = spec.lrnSize / 2;
    const float alpha = static_cast<float>(spec.lrnAlpha);
    const float beta = static_cast<float>(spec.lrnBeta);
    parallelFor(
        0, rows,
        [&](int64_t lo, int64_t hi) {
            for (int64_t yi = lo; yi < hi; yi++) {
                const int y = static_cast<int>(yi);
                const int gy = oy.begin + y;
                for (int ch = 0; ch < channels; ch++) {
                    const float *src = in.at(ch, gy, ox.begin);
                    std::copy(src, src + w,
                              st.scratch.data() + st.scratch.idx(ch, y, 0));
                }
                for (int t = 0; t < w; t++) {
                    for (int ch = 0; ch < channels; ch++) {
                        const int j0 = std::max(0, ch - half);
                        const int j1 = std::min(channels - 1, ch + half);
                        float sum = 0.0f;
                        for (int j = j0; j <= j1; j++) {
                            const float v = st.scratch(j, y, t);
                            sum += v * v;
                        }
                        const float denom =
                            std::pow(2.0f + alpha * sum, beta);
                        *out.at(ch, gy, ox.begin + t) =
                            st.scratch(ch, y, t) / denom;
                    }
                }
            }
        },
        rowGrain(static_cast<int64_t>(channels) * w * spec.lrnSize));
    int64_t taps = 0;
    for (int ch = 0; ch < channels; ch++)
        taps += std::min(channels - 1, ch + half) - std::max(0, ch - half) + 1;
    const int64_t points = static_cast<int64_t>(rows) * w;
    curStats.ops.mults += (taps + 2LL * channels) * points;
    curStats.ops.adds += (taps + channels) * points;
}

Tensor
FusedExecutor::run(const Tensor &input, FusedRunStats *stats)
{
    Tensor output(tplan.groupOutput());
    runInto(input, &output, stats);
    return output;
}

void
FusedExecutor::runInto(const Tensor &input, Tensor *out,
                       FusedRunStats *stats)
{
    FLCNN_ASSERT(input.shape() == tplan.groupInput(),
                 "input shape does not match the fusion plan");
    FLCNN_ASSERT(out != nullptr &&
                     out->shape() == tplan.groupOutput(),
                 "output shape does not match the fusion plan");
    Tensor &output = *out;
    groupInput = &input;
    groupOutput = &output;
    curStats = FusedRunStats{};

    const int n = tplan.numFusedLayers();
    std::vector<double> layerWall;
    std::vector<int64_t> layerLoaded, layerMults, layerAdds,
        layerCompares;
    if (metrics) {
        layerWall.assign(static_cast<size_t>(n), 0.0);
        layerLoaded.assign(static_cast<size_t>(n), 0);
        layerMults.assign(static_cast<size_t>(n), 0);
        layerAdds.assign(static_cast<size_t>(n), 0);
        layerCompares.assign(static_cast<size_t>(n), 0);
    }
    conv.beginRun();
    for (int li = 0; li < n; li++) {
        LayerState &st = states[static_cast<size_t>(li)];
        bool counts_coverage =
            tplan.geom(li).windowed ||
            net.layer(tplan.geom(li).layerIdx).kind == LayerKind::Pad;
        if (trackCoverage && counts_coverage) {
            st.coverage.assign(
                static_cast<size_t>(tplan.geom(li).outPlane.elems()), 0);
        } else {
            st.coverage.clear();
        }
    }

    for (int r = 0; r < tplan.numPyramidRows(); r++) {
        for (int c = 0; c < tplan.numPyramidCols(); c++) {
            for (int li = 0; li < n; li++) {
                const LayerGeom &g = tplan.geom(li);
                const LayerSpec &spec = net.layer(g.layerIdx);
                LayerState &st = states[static_cast<size_t>(li)];
                if (!g.isActiveY(r) || !g.isActiveX(c)) {
                    // Stalled pyramid: this layer computes nothing here
                    // and its ring carries over untouched, so nothing
                    // may have been written into it.
                    FLCNN_ASSERT(
                        !g.windowed || li == 0 ||
                            states[static_cast<size_t>(li) - 1]
                                .freshY.empty() ||
                            states[static_cast<size_t>(li) - 1]
                                .freshX.empty(),
                        "a stalled layer's producer wrote fresh data");
                    Span ey = g.freshOutY(r), ex = g.freshOutX(c);
                    st.freshY = Span{ey.end, ey.end};
                    st.freshX = Span{ex.end, ex.end};
                    continue;
                }
                int64_t loaded0 = 0, mul0 = 0, add0 = 0, cmp0 = 0;
                double t0 = 0.0;
                if (metrics) {
                    loaded0 = curStats.loadedBytes;
                    mul0 = curStats.ops.mults;
                    add0 = curStats.ops.adds;
                    cmp0 = curStats.ops.compares;
                    t0 = monotonicSeconds();
                }
                if (g.windowed)
                    computeWindowed(li, r, c);
                else if (spec.kind == LayerKind::Pad)
                    runPad(li, r, c);
                else
                    runPointwise(li, r, c);
                if (metrics) {
                    const size_t i = static_cast<size_t>(li);
                    layerWall[i] += monotonicSeconds() - t0;
                    layerLoaded[i] += curStats.loadedBytes - loaded0;
                    layerMults[i] += curStats.ops.mults - mul0;
                    layerAdds[i] += curStats.ops.adds - add0;
                    layerCompares[i] += curStats.ops.compares - cmp0;
                }
            }

            // Retire the pyramid: the tail wrote its rect straight into
            // the group output; account and trace the store.
            const LayerState &tail = states[static_cast<size_t>(n - 1)];
            const Span oy = tail.freshY, ox = tail.freshX;
            if (!oy.empty() && !ox.empty()) {
                curStats.storedBytes += static_cast<int64_t>(oy.width()) *
                                        ox.width() * output.shape().c * 4;
                traceRect(true, output, traceOutputBase, oy, ox);
            }
            curStats.pyramids++;
        }
    }

    curStats.reuseBytes = tplan.reuseBufferBytes();
    curStats.workingBytes = bufferBytes();

    if (metrics) {
        for (int li = 0; li < n; li++) {
            const size_t i = static_cast<size_t>(li);
            const LayerGeom &g = tplan.geom(li);
            const LayerState &st = states[i];
            const std::string scope =
                metricsPrefix + MetricsRegistry::layerScope(
                                    li, net.layer(g.layerIdx).name);
            metrics->addCounter(scope, "dram_read_bytes",
                                layerLoaded[i]);
            // Every stored byte retires through the tail layer.
            metrics->addCounter(scope, "dram_write_bytes",
                                li == n - 1 ? curStats.storedBytes : 0);
            metrics->addCounter(scope, "mults", layerMults[i]);
            metrics->addCounter(scope, "adds", layerAdds[i]);
            metrics->addCounter(scope, "compares", layerCompares[i]);
            metrics->addGauge(scope, "wall_seconds", layerWall[i]);
            metrics->setGauge(scope, "ring_bytes",
                              static_cast<double>(st.ring.shape().bytes()));
            metrics->setGauge(
                scope, "reuse_bytes",
                static_cast<double>(g.blBytes() + g.btBytes()));
        }
        metrics->addCounter(metricsPrefix, "pyramids",
                            curStats.pyramids);
        conv.recordPackCounters(*metrics, metricsPrefix);
    }

    if (trackCoverage) {
        coverageMsg.clear();
        // The group-output completeness check applies to the last layer
        // that tallies coverage (a pointwise tail tallies nothing itself
        // and shares its producer's rects).
        int tail = n - 1;
        while (tail >= 0 && states[static_cast<size_t>(tail)].coverage.empty())
            tail--;
        for (int li = 0; li < n; li++) {
            const LayerState &st = states[static_cast<size_t>(li)];
            if (st.coverage.empty())
                continue;
            int64_t over = 0, computed = 0;
            for (uint8_t v : st.coverage) {
                if (v > 1)
                    over++;
                if (v >= 1)
                    computed++;
            }
            int64_t want = tplan.geom(li).outPlane.elems();
            if (over > 0) {
                char buf[128];
                std::snprintf(buf, sizeof(buf),
                              "layer %d recomputed %lld elements; ", li,
                              static_cast<long long>(over));
                coverageMsg += buf;
            }
            if (li == tail && computed != want) {
                char buf[128];
                std::snprintf(
                    buf, sizeof(buf),
                    "output layer %d covered %lld of %lld elements; ", li,
                    static_cast<long long>(computed),
                    static_cast<long long>(want));
                coverageMsg += buf;
            }
        }
    }

    groupInput = nullptr;
    groupOutput = nullptr;
    if (stats)
        *stats = curStats;
}

std::string
FusedExecutor::coverageReport() const
{
    return coverageMsg;
}

} // namespace flcnn
