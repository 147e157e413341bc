#include "fusion/plan.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "common/mathutil.hh"

namespace flcnn {

Span
LayerGeom::freshInX(int c) const
{
    // New data = full-span diff, clamped into this pyramid's tile.
    Span s = inX[static_cast<size_t>(c)];
    Span f = fullInX[static_cast<size_t>(c)];
    s.begin = std::max(s.begin, f.begin);
    if (retain && c > 0) {
        s.begin =
            std::max(s.begin, fullInX[static_cast<size_t>(c) - 1].end);
    }
    return s;
}

Span
LayerGeom::freshInY(int r) const
{
    Span s = inY[static_cast<size_t>(r)];
    Span f = fullInY[static_cast<size_t>(r)];
    s.begin = std::max(s.begin, f.begin);
    if (retain && r > 0) {
        s.begin =
            std::max(s.begin, fullInY[static_cast<size_t>(r) - 1].end);
    }
    return s;
}

Span
LayerGeom::freshOutX(int c) const
{
    Span s = outX[static_cast<size_t>(c)];
    if (retain && c > 0)
        s.begin = std::max(s.begin, outX[static_cast<size_t>(c) - 1].end);
    return s;
}

Span
LayerGeom::freshOutY(int r) const
{
    Span s = outY[static_cast<size_t>(r)];
    if (retain && r > 0)
        s.begin = std::max(s.begin, outY[static_cast<size_t>(r) - 1].end);
    return s;
}

int64_t
LayerGeom::tileBytes() const
{
    if (!windowed)
        return 0;
    return static_cast<int64_t>(inPlane.c) * maxTileH * maxTileW * 4;
}

int64_t
LayerGeom::blBytes() const
{
    if (!windowed || overlapX <= 0)
        return 0;
    return static_cast<int64_t>(inPlane.c) * maxTileH * overlapX * 4;
}

int64_t
LayerGeom::btBytes() const
{
    if (!windowed || overlapY <= 0)
        return 0;
    return static_cast<int64_t>(inPlane.c) * overlapY * inPlane.w * 4;
}

int64_t
LayerGeom::freshOutBytes() const
{
    return static_cast<int64_t>(outPlane.c) * maxFreshOutH *
           maxFreshOutW * 4;
}

TilePlan::TilePlan(const Network &network, int first_layer, int last_layer,
                   int tip_h, int tip_w, bool retain)
    : net(network), first(first_layer), last(last_layer), tiph(tip_h),
      tipw(tip_w)
{
    FLCNN_ASSERT(first >= 0 && last < net.numLayers() && first <= last,
                 "fusion range out of bounds");
    FLCNN_ASSERT(tiph > 0 && tipw > 0, "tip tile must be positive");
    for (int i = first; i <= last; i++) {
        if (!net.layer(i).fusable()) {
            fatal("layer %d ('%s') of '%s' cannot be fused", i,
                  net.layer(i).name.c_str(), net.name().c_str());
        }
    }

    const Shape &out = net.outShape(last);
    prows = static_cast<int>(ceilDiv(out.h, tiph));
    pcols = static_cast<int>(ceilDiv(out.w, tipw));

    int n_layers = last - first + 1;
    geoms.assign(static_cast<size_t>(n_layers), LayerGeom{});

    // Seed the group-output spans from the tip tiling, then walk
    // backwards applying each layer's span transfer function.
    std::vector<Span> cur_x(static_cast<size_t>(pcols));
    std::vector<Span> cur_y(static_cast<size_t>(prows));
    for (int c = 0; c < pcols; c++) {
        cur_x[static_cast<size_t>(c)] =
            Span{c * tipw, std::min((c + 1) * tipw, out.w)};
    }
    for (int r = 0; r < prows; r++) {
        cur_y[static_cast<size_t>(r)] =
            Span{r * tiph, std::min((r + 1) * tiph, out.h)};
    }

    for (int i = last; i >= first; i--) {
        LayerGeom &g = geoms[static_cast<size_t>(i - first)];
        const LayerSpec &spec = net.layer(i);
        g.layerIdx = i;
        g.inPlane = net.inShape(i);
        g.outPlane = net.outShape(i);
        g.windowed = spec.windowed();
        g.retain = retain;
        g.outX = cur_x;
        g.outY = cur_y;

        g.fullInX.resize(static_cast<size_t>(pcols));
        g.fullInY.resize(static_cast<size_t>(prows));
        g.inX.resize(static_cast<size_t>(pcols));
        g.inY.resize(static_cast<size_t>(prows));
        // For an empty output span the input span must be anchored at
        // the running end of input actually consumed so far (anchoring
        // it anywhere else over- or under-states what is on chip and
        // corrupts the fresh-data diffs).
        for (int c = 0; c < pcols; c++) {
            const Span &out = cur_x[static_cast<size_t>(c)];
            if (out.empty()) {
                int e = (c == 0)
                            ? 0
                            : g.fullInX[static_cast<size_t>(c) - 1].end;
                g.fullInX[static_cast<size_t>(c)] = Span{e, e};
            } else {
                g.fullInX[static_cast<size_t>(c)] =
                    layerInSpan(spec, out, g.inPlane.w);
            }
        }
        for (int r = 0; r < prows; r++) {
            const Span &out = cur_y[static_cast<size_t>(r)];
            if (out.empty()) {
                int e = (r == 0)
                            ? 0
                            : g.fullInY[static_cast<size_t>(r) - 1].end;
                g.fullInY[static_cast<size_t>(r)] = Span{e, e};
            } else {
                g.fullInY[static_cast<size_t>(r)] =
                    layerInSpan(spec, out, g.inPlane.h);
            }
        }

        // Compute (tile) spans: the receptive field of only the fresh
        // output. When a pyramid produces nothing new at this layer
        // (possible under aggressive padding clip at the borders), the
        // tile *holds* the previous pyramid's span so that the reuse
        // buffers carry forward and span begins stay monotone (the BT
        // safe-write hazard analysis depends on that).
        for (int c = 0; c < pcols; c++) {
            Span fo = g.freshOutX(c);
            if (fo.empty()) {
                if (c == 0) {
                    int e = g.fullInX[0].end;
                    g.inX[0] = Span{e, e};
                } else {
                    g.inX[static_cast<size_t>(c)] =
                        g.inX[static_cast<size_t>(c) - 1];
                }
            } else {
                Span need{fo.begin, g.outX[static_cast<size_t>(c)].end};
                g.inX[static_cast<size_t>(c)] =
                    layerInSpan(spec, need, g.inPlane.w);
            }
        }
        for (int r = 0; r < prows; r++) {
            Span fo = g.freshOutY(r);
            if (fo.empty()) {
                if (r == 0) {
                    int e = g.fullInY[0].end;
                    g.inY[0] = Span{e, e};
                } else {
                    g.inY[static_cast<size_t>(r)] =
                        g.inY[static_cast<size_t>(r) - 1];
                }
            } else {
                Span need{fo.begin, g.outY[static_cast<size_t>(r)].end};
                g.inY[static_cast<size_t>(r)] =
                    layerInSpan(spec, need, g.inPlane.h);
            }
        }

        // Activity flags, next-active begins, overlap widths (between
        // consecutive *active* pyramids only), and buffer extents.
        g.activeX.resize(static_cast<size_t>(pcols));
        g.activeY.resize(static_cast<size_t>(prows));
        g.nextBeginX.assign(static_cast<size_t>(pcols), -1);
        g.nextBeginY.assign(static_cast<size_t>(prows), -1);

        int next_begin = -1;
        for (int c = pcols - 1; c >= 0; c--) {
            g.activeX[static_cast<size_t>(c)] = !g.freshOutX(c).empty();
            g.nextBeginX[static_cast<size_t>(c)] = next_begin;
            if (g.activeX[static_cast<size_t>(c)])
                next_begin = g.inX[static_cast<size_t>(c)].begin;
        }
        next_begin = -1;
        for (int r = prows - 1; r >= 0; r--) {
            g.activeY[static_cast<size_t>(r)] = !g.freshOutY(r).empty();
            g.nextBeginY[static_cast<size_t>(r)] = next_begin;
            if (g.activeY[static_cast<size_t>(r)])
                next_begin = g.inY[static_cast<size_t>(r)].begin;
        }

        int prev_active = -1;
        for (int c = 0; c < pcols; c++) {
            g.maxFullInW = std::max(
                g.maxFullInW, g.fullInX[static_cast<size_t>(c)].width());
            if (!g.activeX[static_cast<size_t>(c)])
                continue;
            g.maxTileW = std::max(g.maxTileW,
                                  g.inX[static_cast<size_t>(c)].width());
            g.maxFreshOutW =
                std::max(g.maxFreshOutW, g.freshOutX(c).width());
            if (retain && prev_active >= 0) {
                int ov = g.inX[static_cast<size_t>(prev_active)].end -
                         g.inX[static_cast<size_t>(c)].begin;
                g.overlapX = std::max(g.overlapX, ov);
            }
            prev_active = c;
        }
        prev_active = -1;
        for (int r = 0; r < prows; r++) {
            g.maxFullInH = std::max(
                g.maxFullInH, g.fullInY[static_cast<size_t>(r)].width());
            if (!g.activeY[static_cast<size_t>(r)])
                continue;
            g.maxTileH = std::max(g.maxTileH,
                                  g.inY[static_cast<size_t>(r)].width());
            g.maxFreshOutH =
                std::max(g.maxFreshOutH, g.freshOutY(r).width());
            if (retain && prev_active >= 0) {
                int ov = g.inY[static_cast<size_t>(prev_active)].end -
                         g.inY[static_cast<size_t>(r)].begin;
                g.overlapY = std::max(g.overlapY, ov);
            }
            prev_active = r;
        }

        cur_x = g.fullInX;
        cur_y = g.fullInY;
    }
}

const LayerGeom &
TilePlan::geom(int i) const
{
    FLCNN_ASSERT(i >= 0 && i < numFusedLayers(),
                 "fused layer index out of range");
    return geoms[static_cast<size_t>(i)];
}

int64_t
TilePlan::reuseBufferBytes() const
{
    int64_t bytes = 0;
    for (const auto &g : geoms)
        bytes += g.blBytes() + g.btBytes();
    return bytes;
}

int64_t
TilePlan::workingBufferBytes() const
{
    int64_t bytes = 0;
    for (const auto &g : geoms)
        bytes += g.tileBytes() + g.freshOutBytes();
    return bytes;
}

int64_t
TilePlan::inputBytesLoaded() const
{
    // Under the reuse model every used input element is loaded exactly
    // once. The new data at pyramid (r, c) is the corner rectangle of
    // fresh rows x fresh columns: the left strip arrived with pyramid
    // (r, c-1) and the top strip with row r-1's sweep (which covers the
    // same column set), so the fresh rectangles partition the used
    // region of the plane. Under recompute the fresh spans are the full
    // spans, so the sum counts every overlap re-read.
    const LayerGeom &g0 = geoms.front();
    int64_t elems = 0;
    for (int r = 0; r < prows; r++) {
        for (int c = 0; c < pcols; c++) {
            elems += static_cast<int64_t>(g0.freshInY(r).width()) *
                     g0.freshInX(c).width();
        }
    }
    return elems * g0.inPlane.c * 4;
}

int64_t
TilePlan::outputBytesStored() const
{
    return groupOutput().bytes();
}

std::string
TilePlan::str() const
{
    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "fusion of layers [%d, %d], tip %dx%d, %dx%d pyramids\n",
                  first, last, tiph, tipw, prows, pcols);
    out += buf;
    for (const auto &g : geoms) {
        const LayerSpec &spec = net.layer(g.layerIdx);
        std::snprintf(
            buf, sizeof(buf),
            "  %-24s in %-12s tile %3dx%-3d ovl %dx%d fresh %2dx%-2d "
            "bufs %lld B\n",
            spec.str().c_str(), g.inPlane.str().c_str(), g.maxTileH,
            g.maxTileW, g.overlapY, g.overlapX, g.maxFreshOutH,
            g.maxFreshOutW,
            static_cast<long long>(g.blBytes() + g.btBytes()));
        out += buf;
    }
    return out;
}

} // namespace flcnn
