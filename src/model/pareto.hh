/**
 * @file
 * Pareto-frontier extraction for two-objective (minimize, minimize)
 * design points — the solid line in the paper's Figure 7.
 */

#ifndef FLCNN_MODEL_PARETO_HH
#define FLCNN_MODEL_PARETO_HH

#include <cstdint>
#include <vector>

#include "model/partition.hh"

namespace flcnn {

/** One evaluated fusion design (a point in Figure 7). */
struct DesignPoint
{
    Partition partition;
    int64_t storageBytes = 0;   //!< extra on-chip storage (x axis)
    int64_t transferBytes = 0;  //!< off-chip transfer per image (y axis)
    int64_t extraOps = 0;       //!< recompute-model alternative cost

    /** True when this point dominates @p o (<= on both axes, < on one). */
    bool
    dominates(const DesignPoint &o) const
    {
        return storageBytes <= o.storageBytes &&
               transferBytes <= o.transferBytes &&
               (storageBytes < o.storageBytes ||
                transferBytes < o.transferBytes);
    }
};

/**
 * Extract the Pareto-optimal subset (minimizing storage and transfer),
 * sorted by ascending storage. Duplicate-coordinate points keep one
 * representative (the lowest-index one).
 */
std::vector<DesignPoint> paretoFront(std::vector<DesignPoint> points);

/**
 * The point of @p front (a Pareto front sorted by ascending storage, as
 * paretoFront() returns it) with the least transfer whose storage fits
 * @p max_storage_bytes — how a designer picks the paper's point B.
 * nullptr when none fits.
 */
const DesignPoint *bestUnderStorage(const std::vector<DesignPoint> &front,
                                    int64_t max_storage_bytes);

/**
 * Indices (into @p points) of the Pareto-optimal subset, sorted by
 * ascending storage; equal-coordinate candidates resolve to the lowest
 * index. Lets large sweeps extract the front without copying every
 * point's partition the way the by-value overload must.
 */
std::vector<size_t>
paretoFrontIndices(const std::vector<DesignPoint> &points);

/** A point in a three-objective (minimize, minimize, minimize) space —
 *  the latency/energy/buffer surface of the schedule explorer. */
struct ParetoPoint3
{
    int64_t x = 0;
    int64_t y = 0;
    int64_t z = 0;

    /** Weak dominance: <= on every axis. Combined with "not equal on
     *  all axes" this is strict Pareto dominance. */
    bool
    weaklyDominates(const ParetoPoint3 &o) const
    {
        return x <= o.x && y <= o.y && z <= o.z;
    }
};

/**
 * Indices of the three-objective Pareto-optimal subset, sorted by
 * ascending (x, y, z); equal-coordinate duplicates keep the
 * lowest-index representative. Every input point is weakly dominated
 * by some returned point (itself when it survives) — the property the
 * frontier-comparison tooling relies on.
 *
 * Large inputs run a bucketed prefilter first. Unlike the 2-objective
 * case, per-axis prefix minima over buckets are *not* sound dominators
 * in >= 3 dimensions (the minima of y and z may come from different
 * points, and a point tying on two axes can still win on the third),
 * so the prefilter compares against real representative points per
 * bucket and drops only on weak (y, z) dominance from a strictly
 * lower x-bucket — which is strict dominance overall.
 */
std::vector<size_t>
paretoFrontIndices3(const std::vector<ParetoPoint3> &points);

} // namespace flcnn

#endif // FLCNN_MODEL_PARETO_HH
