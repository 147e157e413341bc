/**
 * @file
 * Partitioning a network's fusable stages into contiguous fused groups.
 *
 * Section V-B: a network with l fusable stages admits 2^(l-1) ways to
 * split the stage sequence into contiguous groups (each group becomes
 * one pyramid). AlexNet's 8 stages give 128 options; the VGGNet-E
 * five-conv prefix's 7 stages give 64.
 */

#ifndef FLCNN_MODEL_PARTITION_HH
#define FLCNN_MODEL_PARTITION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "nn/network.hh"

namespace flcnn {

/** One fused group: a contiguous range of stage indices. */
struct StageGroup
{
    int firstStage = 0;
    int lastStage = 0;

    int size() const { return lastStage - firstStage + 1; }

    friend bool
    operator==(const StageGroup &a, const StageGroup &b)
    {
        return a.firstStage == b.firstStage && a.lastStage == b.lastStage;
    }
};

/** A partition: ordered, contiguous, exhaustive groups of stages. */
using Partition = std::vector<StageGroup>;

/** All 2^(l-1) partitions of @p num_stages stages (l >= 1). Ordered by
 *  the cut bitmask, so index 0 is the all-fused single group and the
 *  last index is the fully layer-by-layer partition. */
std::vector<Partition> enumeratePartitions(int num_stages);

/** Number of partitions without materializing them. */
int64_t countPartitions(int num_stages);

/** The partition with every stage in its own group (layer-by-layer). */
Partition singletonPartition(int num_stages);

/** The partition fusing all stages into one pyramid. */
Partition fullFusionPartition(int num_stages);

/** Build a partition from group sizes, e.g. {2, 1, 3}; validates that
 *  the sizes are positive and sum to @p num_stages. */
Partition partitionFromSizes(const std::vector<int> &sizes,
                             int num_stages);

/** Layer range [first, last] covered by @p group in @p net. */
void groupLayerRange(const Network &net, const StageGroup &group,
                     int &first_layer, int &last_layer);

/** Validate: contiguous, exhaustive, within the stage count. Returns an
 *  error message or the empty string. */
std::string validatePartition(const Partition &p, int num_stages);

/** Render as "(2, 1, 3)" group sizes, the paper's notation. */
std::string partitionStr(const Partition &p);

} // namespace flcnn

#endif // FLCNN_MODEL_PARTITION_HH
