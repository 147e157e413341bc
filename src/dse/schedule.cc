#include "dse/schedule.hh"

#include <cinttypes>
#include <cstdio>

#include "common/logging.hh"
#include "model/recompute.hh"

namespace flcnn {
namespace dse {

const char *
dataflowName(Dataflow f)
{
    switch (f) {
      case Dataflow::Pyramid:
        return "pyramid";
      case Dataflow::Independent:
        return "independent";
      case Dataflow::UniformStride:
        return "uniform";
    }
    panic("unknown dataflow %d", static_cast<int>(f));
}

namespace {

/** True when windowed layer @p w's halo is produced inside
 *  [first_layer, w) by a layer with nonzero per-point cost — i.e.
 *  recomputing instead of retaining would actually price ops. */
bool
recomputeIsPriced(const Network &net, int first_layer, int w)
{
    const int p = recomputeProducerLayer(net, first_layer, w);
    return p >= 0 && producerPointMultAdds(net, p) != 0;
}

} // namespace

uint32_t
meaningfulRetainBits(const Network &net, const GroupSchedule &g)
{
    int first_layer, last_layer;
    groupLayerRange(net, StageGroup{g.firstStage, g.lastStage},
                    first_layer, last_layer);
    uint32_t bits = 0;
    int k = 0;
    for (int w = first_layer; w <= last_layer; w++) {
        const LayerSpec &spec = net.layer(w);
        if (!spec.windowed())
            continue;
        // The first windowed layer's halo is the group input: it is
        // loaded from DRAM either way (the storage model's
        // skip-first-input convention) and never recomputable.
        if (k > 0) {
            const bool overlaps = spec.kernel > spec.stride;
            if (overlaps || recomputeIsPriced(net, first_layer, w))
                bits |= uint32_t{1} << k;
        }
        k++;
        FLCNN_ASSERT(k <= kMaxGroupWindowed,
                     "group has more than 32 windowed layers");
    }
    return bits;
}

std::string
validateSchedule(const Network &net, const Schedule &s)
{
    const int stages = static_cast<int>(net.stages().size());
    Partition p = schedulePartition(s);
    std::string err = validatePartition(p, stages);
    if (!err.empty())
        return err;
    for (size_t gi = 0; gi < s.groups.size(); gi++) {
        const GroupSchedule &g = s.groups[gi];
        char buf[160];
        int first_layer, last_layer;
        groupLayerRange(net, StageGroup{g.firstStage, g.lastStage},
                        first_layer, last_layer);
        int windowed = 0;
        for (int i = first_layer; i <= last_layer; i++)
            windowed += net.layer(i).windowed() ? 1 : 0;
        if (windowed > kMaxGroupWindowed) {
            std::snprintf(buf, sizeof buf,
                          "group %zu: %d windowed layers, more than the "
                          "%d retain bits of a group",
                          gi, windowed, kMaxGroupWindowed);
            return buf;
        }
        if (g.tileH < 1 || g.tileH > kMaxTileH) {
            std::snprintf(buf, sizeof buf,
                          "group %zu: tile height %d outside [1, %d]", gi,
                          g.tileH, kMaxTileH);
            return buf;
        }
        if (g.flow == Dataflow::UniformStride && g.size() > 1) {
            int stride = 0;
            for (int i = first_layer; i <= last_layer; i++) {
                const LayerSpec &spec = net.layer(i);
                if (!spec.windowed())
                    continue;
                if (stride == 0)
                    stride = spec.stride;
                else if (spec.stride != stride) {
                    std::snprintf(
                        buf, sizeof buf,
                        "group %zu: uniform-stride dataflow over mixed "
                        "strides (%d vs %d)",
                        gi, stride, spec.stride);
                    return buf;
                }
            }
        }
    }
    return "";
}

Schedule
canonicalSchedule(const Network &net, Schedule s)
{
    for (GroupSchedule &g : s.groups) {
        if (g.size() == 1 && g.flow != Dataflow::Pyramid)
            g.flow = Dataflow::Pyramid;  // indistinguishable alternatives
        if (g.flow != Dataflow::Pyramid) {
            g.retainMask = ~0u;  // retain bits only exist under Pyramid
            continue;
        }
        const uint32_t meaningful = meaningfulRetainBits(net, g);
        g.retainMask |= ~meaningful;  // force moot bits to "retain"
    }
    return s;
}

uint64_t
scheduleHash(const Network &net, const Schedule &s)
{
    Schedule c = canonicalSchedule(net, s);
    uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; i++) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    mix(c.groups.size());
    for (const GroupSchedule &g : c.groups) {
        mix(static_cast<uint64_t>(g.firstStage));
        mix(static_cast<uint64_t>(g.lastStage));
        mix(static_cast<uint64_t>(g.tileH));
        mix(static_cast<uint64_t>(g.flow));
        mix(g.retainMask);
    }
    return h;
}

Schedule
chainSchedule(const Partition &p)
{
    Schedule s;
    s.groups.reserve(p.size());
    for (const StageGroup &g : p)
        s.groups.push_back(GroupSchedule{g.firstStage, g.lastStage, 1,
                                         Dataflow::Pyramid, ~0u});
    return s;
}

bool
isChainRestricted(const Network &net, const Schedule &s)
{
    for (const GroupSchedule &g : s.groups) {
        if (g.tileH != 1 || g.flow != Dataflow::Pyramid)
            return false;
        // All meaningful boundaries must retain (the chain model).
        if ((g.retainMask & meaningfulRetainBits(net, g)) !=
            meaningfulRetainBits(net, g))
            return false;
    }
    return true;
}

Partition
schedulePartition(const Schedule &s)
{
    Partition p;
    p.reserve(s.groups.size());
    for (const GroupSchedule &g : s.groups)
        p.push_back(StageGroup{g.firstStage, g.lastStage});
    return p;
}

std::string
scheduleStr(const Network &net, const Schedule &s)
{
    std::string out = "(";
    for (size_t i = 0; i < s.groups.size(); i++) {
        const GroupSchedule &g = s.groups[i];
        if (i)
            out += ", ";
        char buf[96];
        std::snprintf(buf, sizeof buf, "%d", g.size());
        out += buf;
        if (g.tileH != 1) {
            std::snprintf(buf, sizeof buf, ":t%d", g.tileH);
            out += buf;
        }
        if (g.flow == Dataflow::Independent)
            out += ":ind";
        else if (g.flow == Dataflow::UniformStride)
            out += ":us";
        if (g.flow == Dataflow::Pyramid) {
            const uint32_t recomputed =
                ~g.retainMask & meaningfulRetainBits(net, g);
            if (recomputed) {
                std::snprintf(buf, sizeof buf, ":r%" PRIx32, recomputed);
                out += buf;
            }
        }
    }
    out += ")";
    return out;
}

} // namespace dse
} // namespace flcnn
