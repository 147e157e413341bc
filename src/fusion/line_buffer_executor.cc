#include "fusion/line_buffer_executor.hh"

#include <algorithm>
#include <cmath>

#include "common/clock.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/metrics.hh"

namespace flcnn {

LineBufferExecutor::LineBufferExecutor(const Network &network,
                                       const NetworkWeights &w,
                                       int first_layer, int last_layer,
                                       int row_block)
    : net(network), first(first_layer), last(last_layer),
      rowBlock(row_block), conv(network, w, first_layer, last_layer)
{
    FLCNN_ASSERT(first >= 0 && last < net.numLayers() && first <= last,
                 "fusion range out of bounds");
    FLCNN_ASSERT(rowBlock >= 1, "row block must be positive");
    const int n = last - first + 1;
    states.resize(static_cast<size_t>(n));
    for (int li = 0; li < n; li++) {
        const LayerSpec &spec = net.layer(first + li);
        FLCNN_ASSERT(spec.fusable(), "range contains a non-fusable layer");
        const Shape &in = net.inShape(first + li);
        const Shape &out = net.outShape(first + li);
        LayerState &st = states[static_cast<size_t>(li)];
        if (spec.windowed()) {
            st.ringRows =
                (rowBlock - 1) * spec.stride + spec.kernel;
            st.ring = Tensor(in.c, st.ringRows, in.w);
            st.blockBuf.assign(static_cast<size_t>(rowBlock) * out.c *
                                   out.w,
                               0.0f);
        }
        st.rowBuf.assign(static_cast<size_t>(out.c) * out.w, 0.0f);
    }
}

int64_t
LineBufferExecutor::bufferBytes() const
{
    int64_t bytes = 0;
    for (const auto &st : states) {
        if (st.ringRows > 0)
            bytes += st.ring.shape().bytes();
    }
    return bytes;
}

void
LineBufferExecutor::drain(int li, Tensor &output)
{
    LayerState &st = states[static_cast<size_t>(li)];
    const LayerSpec &spec = net.layer(first + li);
    const Shape &in = net.inShape(first + li);
    const Shape &out = net.outShape(first + li);
    const int k = spec.kernel, s = spec.stride, cap = st.ringRows;
    const int64_t row_elems = static_cast<int64_t>(out.c) * out.w;

    for (;;) {
        int max_by_input =
            st.rowsIn >= k ? (st.rowsIn - k) / s + 1 : 0;
        int avail = std::min(out.h, max_by_input) - st.nextOut;
        if (avail <= 0)
            break;
        // Batch full blocks; flush a partial block only once this
        // layer's input is complete (amortizes weight re-streaming;
        // see the row_block constructor comment).
        int batch;
        if (avail >= rowBlock)
            batch = rowBlock;
        else if (st.rowsIn >= in.h)
            batch = avail;
        else
            break;

        const int oy0 = st.nextOut;
        if (spec.kind == LayerKind::Conv) {
            // The ring's modular row mapping goes through the driver's
            // row table. Non-fp32 modes keep a staged shadow of the
            // ring, refreshed incrementally: only the ring rows
            // (re)written since the previous staging are re-converted,
            // so each source row is quantized exactly once per image.
            const int64_t macs = conv.run(
                li, {.src = &st.ring,
                     .ringRows = cap,
                     .srcRow0 = oy0 * s,
                     .x0 = 0,
                     .rows = batch,
                     .count = out.w,
                     .dst = st.blockBuf.data(),
                     .chStride = out.w,
                     .rowStride = row_elems,
                     .stageBegin = std::max(st.stagedIn, st.rowsIn - cap),
                     .stageEnd = st.rowsIn});
            st.stagedIn = st.rowsIn;
            curStats.ops.mults += macs;
            curStats.ops.adds += macs;
            if (metrics) {
                layerOps[static_cast<size_t>(li)].mults += macs;
                layerOps[static_cast<size_t>(li)].adds += macs;
            }
        } else {
            // Disjoint (b, ch) output rows. One pass over the output
            // row per window tap (i, j), with the ring row pointer
            // hoisted: every output element still folds its window in
            // the canonical (i, j) order — the tap loops merely moved
            // outside the vectorizable ox loop — so results stay
            // bit-identical to poolPoint().
            parallelFor(
                0, static_cast<int64_t>(batch) * out.c,
                [&](int64_t lo, int64_t hi) {
                    for (int64_t w = lo; w < hi; w++) {
                        const int b = static_cast<int>(w / out.c);
                        const int ch = static_cast<int>(w % out.c);
                        const int oy = oy0 + b;
                        float *dst =
                            st.blockBuf.data() +
                            static_cast<size_t>(b) * row_elems +
                            static_cast<size_t>(ch) * out.w;
                        const bool is_max =
                            spec.poolMode == PoolMode::Max;
                        if (is_max) {
                            const float *rp =
                                st.ring.rowPtr(ch, (oy * s) % cap, 0);
                            for (int ox = 0; ox < out.w; ox++)
                                dst[ox] = rp[ox * s];
                        } else {
                            for (int ox = 0; ox < out.w; ox++)
                                dst[ox] = 0.0f;
                        }
                        for (int i = 0; i < k; i++) {
                            const float *rp = st.ring.rowPtr(
                                ch, (oy * s + i) % cap, 0);
                            for (int j = 0; j < k; j++) {
                                if (is_max) {
                                    for (int ox = 0; ox < out.w; ox++)
                                        dst[ox] = std::max(
                                            dst[ox], rp[ox * s + j]);
                                } else {
                                    for (int ox = 0; ox < out.w; ox++)
                                        dst[ox] += rp[ox * s + j];
                                }
                            }
                        }
                        if (spec.poolMode == PoolMode::Avg) {
                            const float inv_n =
                                static_cast<float>(k * k);
                            for (int ox = 0; ox < out.w; ox++)
                                dst[ox] /= inv_n;
                        }
                    }
                },
                /*grain=*/2);
            int64_t win =
                static_cast<int64_t>(k) * k * row_elems * batch;
            if (spec.poolMode == PoolMode::Max)
                curStats.ops.compares += win;
            else
                curStats.ops.adds += win;
            if (metrics) {
                OpCount &lo_ = layerOps[static_cast<size_t>(li)];
                if (spec.poolMode == PoolMode::Max)
                    lo_.compares += win;
                else
                    lo_.adds += win;
            }
        }

        st.nextOut += batch;
        for (int b = 0; b < batch; b++) {
            pushRow(li + 1, oy0 + b,
                    st.blockBuf.data() +
                        static_cast<size_t>(b) * row_elems,
                    output);
        }
    }
}

void
LineBufferExecutor::pushRow(int li, int y, const float *row_data,
                            Tensor &output)
{
    const int n = last - first + 1;
    if (li == n) {
        const Shape &out = output.shape();
        for (int ch = 0; ch < out.c; ch++) {
            const float *src =
                row_data + static_cast<size_t>(ch) * out.w;
            std::copy(src, src + out.w, &output(ch, y, 0));
        }
        curStats.storedBytes += static_cast<int64_t>(out.c) * out.w * 4;
        return;
    }

    LayerState &st = states[static_cast<size_t>(li)];
    const LayerSpec &spec = net.layer(first + li);
    const Shape &in = net.inShape(first + li);
    const Shape &out = net.outShape(first + li);

    switch (spec.kind) {
      case LayerKind::Conv:
      case LayerKind::Pool: {
        const int slot = y % st.ringRows;
        for (int ch = 0; ch < in.c; ch++) {
            const float *src =
                row_data + static_cast<size_t>(ch) * in.w;
            std::copy(src, src + in.w, &st.ring(ch, slot, 0));
        }
        st.rowsIn = y + 1;
        drain(li, output);
        break;
      }
      case LayerKind::Pad: {
        const int p = spec.pad;
        auto emit_zero_row = [&](int oy) {
            std::fill(st.rowBuf.begin(), st.rowBuf.end(), 0.0f);
            pushRow(li + 1, oy, st.rowBuf.data(), output);
        };
        if (y == 0) {
            for (int oy = 0; oy < p; oy++)
                emit_zero_row(oy);
        }
        // No per-row refill: rowBuf starts zeroed, the interior is
        // fully overwritten below, and nothing ever writes a nonzero
        // value into the left/right pad columns — they stay zero
        // across rows and runs.
        for (int ch = 0; ch < in.c; ch++) {
            const float *src =
                row_data + static_cast<size_t>(ch) * in.w;
            std::copy(src, src + in.w,
                      st.rowBuf.data() +
                          static_cast<size_t>(ch) * out.w + p);
        }
        pushRow(li + 1, y + p, st.rowBuf.data(), output);
        if (y == in.h - 1) {
            for (int oy = in.h + p; oy < in.h + 2 * p; oy++)
                emit_zero_row(oy);
        }
        break;
      }
      case LayerKind::ReLU: {
        for (int64_t e = 0; e < static_cast<int64_t>(in.c) * in.w; e++)
            st.rowBuf[static_cast<size_t>(e)] =
                std::max(0.0f, row_data[static_cast<size_t>(e)]);
        curStats.ops.compares += static_cast<int64_t>(in.c) * in.w;
        if (metrics)
            layerOps[static_cast<size_t>(li)].compares +=
                static_cast<int64_t>(in.c) * in.w;
        pushRow(li + 1, y, st.rowBuf.data(), output);
        break;
      }
      case LayerKind::LRN: {
        const int half = spec.lrnSize / 2;
        const OpCount ops0 = curStats.ops;
        for (int x = 0; x < in.w; x++) {
            for (int ch = 0; ch < in.c; ch++) {
                float sum = 0.0f;
                int lo = std::max(0, ch - half);
                int hi = std::min(in.c - 1, ch + half);
                for (int j = lo; j <= hi; j++) {
                    float v = row_data[static_cast<size_t>(j) * in.w + x];
                    sum += v * v;
                }
                float denom = std::pow(
                    2.0f + static_cast<float>(spec.lrnAlpha) * sum,
                    static_cast<float>(spec.lrnBeta));
                st.rowBuf[static_cast<size_t>(ch) * in.w + x] =
                    row_data[static_cast<size_t>(ch) * in.w + x] / denom;
                curStats.ops.mults += (hi - lo + 1) + 2;
                curStats.ops.adds += (hi - lo + 1) + 1;
            }
        }
        if (metrics)
            layerOps[static_cast<size_t>(li)] += curStats.ops - ops0;
        pushRow(li + 1, y, st.rowBuf.data(), output);
        break;
      }
      default:
        panic("non-fusable layer in a line-buffer pipeline");
    }
}

Tensor
LineBufferExecutor::run(const Tensor &input, LineBufferStats *stats)
{
    Tensor output(net.outShape(last));
    runInto(input, &output, stats);
    return output;
}

void
LineBufferExecutor::runInto(const Tensor &input, Tensor *out,
                            LineBufferStats *stats)
{
    FLCNN_ASSERT(input.shape() == net.inShape(first),
                 "input shape does not match the fused range");
    FLCNN_ASSERT(out != nullptr && out->shape() == net.outShape(last),
                 "output shape does not match the fused range");
    Tensor &output = *out;
    curStats = LineBufferStats{};
    curStats.bufferBytes = bufferBytes();
    conv.beginRun();
    for (LayerState &st : states) {
        st.rowsIn = 0;
        st.nextOut = 0;
        st.stagedIn = 0;
    }
    double t_run0 = 0.0;
    if (metrics) {
        layerOps.assign(states.size(), OpCount{});
        t_run0 = monotonicSeconds();
    }

    const Shape &in = input.shape();
    if (inputRow.size() < static_cast<size_t>(in.c) * in.w)
        inputRow.resize(static_cast<size_t>(in.c) * in.w);
    float *row = inputRow.data();
    for (int y = 0; y < in.h; y++) {
        for (int ch = 0; ch < in.c; ch++) {
            const float *src = input.rowPtr(ch, y, 0);
            std::copy(src, src + in.w,
                      row + static_cast<size_t>(ch) * in.w);
        }
        curStats.loadedBytes += static_cast<int64_t>(in.c) * in.w * 4;
        pushRow(0, y, row, output);
    }

    if (metrics) {
        const int n = last - first + 1;
        for (int li = 0; li < n; li++) {
            const size_t i = static_cast<size_t>(li);
            const std::string scope = MetricsRegistry::layerScope(
                li, net.layer(first + li).name);
            metrics->addCounter(scope, "dram_read_bytes",
                                li == 0 ? curStats.loadedBytes : 0);
            metrics->addCounter(scope, "dram_write_bytes",
                                li == n - 1 ? curStats.storedBytes : 0);
            metrics->addCounter(scope, "mults", layerOps[i].mults);
            metrics->addCounter(scope, "adds", layerOps[i].adds);
            metrics->addCounter(scope, "compares",
                                layerOps[i].compares);
            metrics->setGauge(
                scope, "ring_bytes",
                states[i].ringRows > 0
                    ? static_cast<double>(states[i].ring.shape().bytes())
                    : 0.0);
        }
        metrics->addGauge("", "wall_seconds", monotonicSeconds() - t_run0);
        conv.recordPackCounters(*metrics, "");
    }

    if (stats)
        *stats = curStats;
}

} // namespace flcnn
