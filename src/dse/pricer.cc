#include "dse/pricer.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/mathutil.hh"
#include "fusion/plan.hh"
#include "model/recompute.hh"
#include "model/storage.hh"
#include "model/transfer.hh"
#include "nn/reference.hh"
#include "sim/pipeline.hh"
#include "tensor/precision.hh"

namespace flcnn {
namespace dse {

namespace {

/** Rescale an fp32 byte count to @p dtype. Every byte count the
 *  models produce is elements x 4, exactly divisible by 4, so
 *  rescaling each term equals rescaling their sum. */
int64_t
scaleBytes(int64_t fp32_bytes, Precision dtype)
{
    const int64_t eb = precisionElemBytes(dtype);
    return eb == 4 ? fp32_bytes : fp32_bytes / 4 * eb;
}

} // namespace

ScheduleCost &
ScheduleCost::operator+=(const ScheduleCost &o)
{
    storageBytes += o.storageBytes;
    workingBytes += o.workingBytes;
    transferBytes += o.transferBytes;
    extraOps += o.extraOps;
    latencyCycles += o.latencyCycles;
    energyPj += o.energyPj;
    approxGroups += o.approxGroups;
    return *this;
}

ScheduleCost &
ScheduleCost::operator-=(const ScheduleCost &o)
{
    storageBytes -= o.storageBytes;
    workingBytes -= o.workingBytes;
    transferBytes -= o.transferBytes;
    extraOps -= o.extraOps;
    latencyCycles -= o.latencyCycles;
    energyPj -= o.energyPj;
    approxGroups -= o.approxGroups;
    return *this;
}

SchedulePricer::SchedulePricer(const Network &net,
                               const GroupCostOptions &cost,
                               const MachineModel &machine)
    : net_(net), cost_(cost), machine_(machine),
      stages_(static_cast<int>(net.stages().size()))
{
    // The bound keeps table()'s mixed-radix key inside 64 bits.
    FLCNN_ASSERT(stages_ >= 1 && stages_ <= (1 << 20),
                 "network stage count outside the pricer's range");
    FLCNN_ASSERT(machine_.macLanes > 0 && machine_.dramBytesPerCycle > 0,
                 "machine model lanes/bandwidth must be positive");
}

const SchedulePricer::GroupTable &
SchedulePricer::table(int first_stage, int last_stage, int tile_h)
{
    FLCNN_ASSERT(first_stage >= 0 && first_stage <= last_stage &&
                     last_stage < stages_,
                 "stage range outside the priced network");
    FLCNN_ASSERT(tile_h >= 1 && tile_h <= kMaxTileH,
                 "tile height outside the IR's range");
    // Mixed-radix key: first, last < stages_ and tile_h <= kMaxTileH,
    // so distinct (first, last, tile_h) triples never share a key.
    const uint64_t key =
        (static_cast<uint64_t>(first_stage) * static_cast<uint64_t>(stages_) +
         static_cast<uint64_t>(last_stage)) *
            static_cast<uint64_t>(kMaxTileH + 1) +
        static_cast<uint64_t>(tile_h);
    auto it = tables_.find(key);
    if (it == tables_.end())
        it = tables_.emplace(key, buildTable(first_stage, last_stage,
                                             tile_h))
                 .first;
    return it->second;
}

SchedulePricer::GroupTable
SchedulePricer::buildTable(int first_stage, int last_stage, int tile_h)
{
    auto scale = [this](int64_t fp32_bytes) {
        return scaleBytes(fp32_bytes, cost_.dtype);
    };

    const StageGroup group{first_stage, last_stage};
    int fl, ll;
    groupLayerRange(net_, group, fl, ll);

    GroupTable t;
    t.transferBytes = scale(groupTransferBytes(net_, group));
    if (last_stage > first_stage && cost_.includeWeightStorage)
        t.weightBytes = scale(net_.weightBytesInRange(fl, ll));
    t.ops = rangeOpCount(net_, fl, ll);
    t.bands = ceilDiv(static_cast<int64_t>(net_.outShape(ll).h),
                      static_cast<int64_t>(tile_h));

    // Base SRAM traffic: every fused layer consumes its input plane
    // and produces its output plane through on-chip buffers once, so
    // intermediates count twice (producer write + consumer read).
    for (int i = fl; i <= ll; i++)
        t.onchipBytes +=
            scale(net_.inShape(i).bytes() + net_.outShape(i).bytes());
    for (int i = fl; i < ll; i++)
        t.intermediateBytes += scale(net_.outShape(i).bytes());

    // Exact halo geometry at this tile height: a (tile_h x 1) tip
    // reproduces the legacy 1-row pyramid at tile_h = 1 and grows the
    // column (BL) state with the tile while the row (BT) strips stay
    // full-width.
    TilePlan plan(net_, fl, ll, tile_h, 1);
    t.workingBytes = scale(plan.workingBufferBytes());

    // One Boundary per windowed layer, aligned with the retain mask's
    // bit order. Index 0 (the first windowed layer) retains for free —
    // its halo is the group input, excluded by the storage model's
    // skip-first convention.
    int k = 0;
    for (int li = 0; li < plan.numFusedLayers(); li++) {
        const LayerGeom &g = plan.geom(li);
        if (!g.windowed)
            continue;
        const int w = g.layerIdx;
        Boundary bd;
        if (k > 0) {
            bd.blBytes = scale(g.blBytes());
            bd.btBytes = scale(g.btBytes());
        }
        const int p = recomputeProducerLayer(net_, fl, w);
        if (p >= 0) {
            const int64_t cost = producerPointMultAdds(net_, p);
            if (cost != 0) {
                const LayerSpec &spec = net_.layer(w);
                // The pairwise model at tile granularity: each producer
                // point feeds ceil(K/S) windows per axis. Horizontally
                // every window is a distinct recompute, as in the
                // paper; vertically, windows that land in the same
                // tile-row band share one computation, collapsing the
                // band count to ceil(ceil(K/S) / tileH). 1-row tiles
                // recover the paper's ceil(K/S)^2 exactly; taller
                // tiles amortize the recompute away.
                const int64_t uses_axis =
                    ceilDiv(spec.kernel, spec.stride);
                const int64_t uses =
                    ceilDiv(uses_axis, static_cast<int64_t>(tile_h)) *
                    uses_axis;
                bd.recomputeOps =
                    net_.outShape(p).elems() * (uses - 1) * cost;
            }
        }
        // Retained halos bounce through SRAM once per tile row band.
        bd.haloTraffic = (bd.blBytes + bd.btBytes) * t.bands;
        t.boundaries.push_back(bd);
        k++;
        FLCNN_ASSERT(k <= 32, "group has more than 32 windowed layers");
    }

    // Pipelined latency (all-retain): Load + one stage per fused stage
    // + Store, over ceil(outH / tile_h) uniform row bands, with Load
    // and Store serialized on the single DRAM channel — the same
    // pipeline shape accel/fused_accel.cc schedules.
    const auto &stages = net_.stages();
    const int nstages = (last_stage - first_stage + 1) + 2;
    std::vector<int64_t> cyc(static_cast<size_t>(nstages), 0);
    const int64_t bands = t.bands;
    const int64_t lanes = machine_.macLanes;
    const int64_t dram_bpc = machine_.dramBytesPerCycle;
    cyc[0] = ceilDiv(ceilDiv(scale(net_.inShape(fl).bytes()), bands),
                     dram_bpc);
    for (int s = first_stage; s <= last_stage; s++) {
        const Stage &st = stages[static_cast<size_t>(s)];
        const OpCount so = rangeOpCount(net_, st.first, st.last);
        const int64_t macs = ceilDiv(so.multAdds(), int64_t{2});
        cyc[static_cast<size_t>(1 + (s - first_stage))] =
            ceilDiv(ceilDiv(macs, bands), lanes) +
            ceilDiv(ceilDiv(so.compares, bands), lanes);
    }
    cyc[static_cast<size_t>(nstages - 1)] =
        ceilDiv(ceilDiv(scale(net_.outShape(ll).bytes()), bands),
                dram_bpc);
    std::vector<int> resources(static_cast<size_t>(nstages), -1);
    resources.front() = 0;
    resources.back() = 0;
    const PipelineSchedule sched = schedulePyramidPipeline(
        bands, nstages,
        [&cyc](int64_t, int s) { return cyc[static_cast<size_t>(s)]; },
        /*keep_slots=*/false, resources);
    t.latencyCycles = sched.makespan();
    return t;
}

ChainCell
SchedulePricer::chainCell(int first_stage, int last_stage)
{
    const GroupTable &t = table(first_stage, last_stage, 1);
    ChainCell c;
    c.transfer = t.transferBytes;
    c.storage = t.weightBytes;
    if (cost_.exactStorage) {
        for (const Boundary &bd : t.boundaries)
            c.storage += bd.blBytes + bd.btBytes;
    } else {
        c.storage += scaleBytes(
            groupReuseStorageBytes(net_, StageGroup{first_stage, last_stage},
                                   /*exact=*/false),
            cost_.dtype);
    }
    if (cost_.withRecompute) {
        for (const Boundary &bd : t.boundaries)
            c.extra += bd.recomputeOps;
    }
    return c;
}

ScheduleCost
SchedulePricer::priceGroup(const GroupSchedule &g)
{
    const GroupTable &t = table(g.firstStage, g.lastStage, g.tileH);

    ScheduleCost c;
    c.transferBytes = t.transferBytes;
    c.workingBytes = t.workingBytes;
    c.storageBytes = t.weightBytes;
    int64_t sram = t.onchipBytes;
    switch (g.flow) {
      case Dataflow::Pyramid:
        for (size_t k = 0; k < t.boundaries.size(); k++) {
            const Boundary &bd = t.boundaries[k];
            if ((g.retainMask >> k) & 1u) {
                c.storageBytes += bd.blBytes + bd.btBytes;
                sram += bd.haloTraffic;
            } else {
                c.extraOps += bd.recomputeOps;
            }
        }
        break;
      case Dataflow::Independent: {
        // Halos are neither stored nor recomputed — the tiles zero-pad
        // them — so any real halo makes the outputs approximate.
        for (const Boundary &bd : t.boundaries) {
            if (bd.blBytes != 0 || bd.btBytes != 0 ||
                bd.recomputeOps != 0) {
                c.approxGroups = 1;
                break;
            }
        }
        break;
      }
      case Dataflow::UniformStride:
        // Output-stationary: only the row (BT) strips persist; the
        // column state rides the accumulators, and intermediate rows
        // stream through the array once instead of write + read.
        for (const Boundary &bd : t.boundaries) {
            c.storageBytes += bd.btBytes;
            sram += bd.btBytes * t.bands;
        }
        sram -= t.intermediateBytes;
        break;
    }

    OpCount ops = t.ops;
    ops.mults += c.extraOps / 2;
    ops.adds += c.extraOps - c.extraOps / 2;
    c.latencyCycles =
        t.latencyCycles +
        ceilDiv(c.extraOps, int64_t{2} * machine_.macLanes);
    c.energyPj = static_cast<int64_t>(
        std::llround(estimateEnergy(t.transferBytes, sram, ops).total()));
    return c;
}

ScheduleCost
SchedulePricer::price(const Schedule &s)
{
    const std::string err = validateSchedule(net_, s);
    if (!err.empty())
        panic("pricing an invalid schedule: %s", err.c_str());
    ScheduleCost total;
    for (const GroupSchedule &g : s.groups)
        total += priceGroup(g);
    return total;
}

ScheduleCost
SchedulePricer::repriceGroup(const ScheduleCost &base,
                             const GroupSchedule &oldg,
                             const GroupSchedule &newg)
{
    FLCNN_ASSERT(oldg.firstStage == newg.firstStage &&
                     oldg.lastStage == newg.lastStage,
                 "incremental re-pricing must keep the stage range");
    ScheduleCost c = base;
    c -= priceGroup(oldg);
    c += priceGroup(newg);
    return c;
}

} // namespace dse
} // namespace flcnn
