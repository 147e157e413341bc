/**
 * @file
 * LineBufferExecutor: the name perfbench still uses for FusedExecutor
 * over the retaining one-column plan that PlanEngine::LineBuffer
 * compiles. It goes with the next change to perfbench.
 */

#ifndef FLCNN_FUSION_LINE_BUFFER_EXECUTOR_HH
#define FLCNN_FUSION_LINE_BUFFER_EXECUTOR_HH

#include "fusion/fused_executor.hh"

namespace flcnn {

struct LineBufferExecutor : FusedExecutor
{
    LineBufferExecutor(const Network &net, const NetworkWeights &w,
                       int first, int last)
        : FusedExecutor(net, w, TilePlan(net, first, last, 1,
                                         net.outShape(last).w)) {}
    int64_t bufferBytes() const { return ringBytes(); }  //!< ring bytes
};

} // namespace flcnn

#endif // FLCNN_FUSION_LINE_BUFFER_EXECUTOR_HH
