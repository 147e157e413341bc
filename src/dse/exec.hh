/**
 * @file
 * Executor bridge: run the subset of schedules the host-side fused
 * executors realize, for spot differential validation of priced
 * designs.
 *
 * The line-buffer executor's row_block knob IS the IR's pyramid tile
 * height — a retained multi-row Pyramid schedule maps group-by-group
 * onto LineBufferExecutor(first, last, row_block = tileH). An
 * all-recompute Pyramid group (every meaningful retain bit clear) runs
 * on FusedExecutor over TilePlan(first, last, tileH, 1, retain =
 * false): the same tileH x 1 tile the pricer prices, with no reuse
 * buffers. A singleton group is plain layer-by-layer evaluation.
 * Groups that mix retained and recomputed boundaries, Independent
 * tiles, and the UniformStride dataflow have no host executor (they
 * are cost-model constructs); those schedules are priced but not
 * executable here, and the query below says why.
 */

#ifndef FLCNN_DSE_EXEC_HH
#define FLCNN_DSE_EXEC_HH

#include <string>

#include "dse/schedule.hh"
#include "nn/weights.hh"
#include "tensor/tensor.hh"

namespace flcnn {
namespace dse {

/**
 * Why @p s cannot be executed by the host executors, or the empty
 * string when it can: every multi-stage group must be a Pyramid that
 * either retains all its meaningful halos or recomputes all of them
 * (any tile height). Invalid schedules return the validation error.
 */
std::string scheduleExecutableReason(const Network &net,
                                     const Schedule &s);

/**
 * Execute @p s on @p input: each retained multi-stage group runs
 * through LineBufferExecutor with row_block = tileH, each
 * all-recompute group through FusedExecutor on a tileH x 1 recompute
 * plan, each singleton group layer by layer, groups chained in order.
 * Bit-identical to nn::runRange over the whole layer range — the
 * differential check for priced schedules. Panics if
 * scheduleExecutableReason() is non-empty.
 */
Tensor executeSchedule(const Network &net, const NetworkWeights &weights,
                       const Tensor &input, const Schedule &s);

} // namespace dse
} // namespace flcnn

#endif // FLCNN_DSE_EXEC_HH
