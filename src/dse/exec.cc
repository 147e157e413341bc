#include "dse/exec.hh"

#include <cstdio>

#include "common/logging.hh"
#include "fusion/fused_executor.hh"
#include "nn/reference.hh"

namespace flcnn {
namespace dse {

std::string
scheduleExecutableReason(const Network &net, const Schedule &s)
{
    std::string err = validateSchedule(net, s);
    if (!err.empty())
        return err;
    for (size_t gi = 0; gi < s.groups.size(); gi++) {
        const GroupSchedule &g = s.groups[gi];
        char buf[128];
        if (g.flow != Dataflow::Pyramid && g.size() > 1) {
            std::snprintf(buf, sizeof buf,
                          "group %zu: no host executor for the %s "
                          "dataflow",
                          gi, dataflowName(g.flow));
            return buf;
        }
        const uint32_t meaningful = meaningfulRetainBits(net, g);
        const uint32_t kept = g.retainMask & meaningful;
        if (kept != 0 && kept != meaningful) {
            std::snprintf(buf, sizeof buf,
                          "group %zu: a mix of retained and recomputed "
                          "boundaries has no host executor",
                          gi);
            return buf;
        }
    }
    return "";
}

Tensor
executeSchedule(const Network &net, const NetworkWeights &weights,
                const Tensor &input, const Schedule &s)
{
    const std::string why = scheduleExecutableReason(net, s);
    if (!why.empty())
        panic("executing a non-executable schedule: %s", why.c_str());

    Tensor cur = input;
    for (const GroupSchedule &g : s.groups) {
        int fl, ll;
        groupLayerRange(net, StageGroup{g.firstStage, g.lastStage}, fl,
                        ll);
        if (g.size() == 1) {
            cur = runRange(net, weights, cur, fl, ll);
        } else {
            // The plan the pricer prices: tileH rows x 1 column tiles,
            // every halo retained or every halo recomputed.
            const uint32_t meaningful = meaningfulRetainBits(net, g);
            FusedExecutor exec(
                net, weights,
                TilePlan(net, fl, ll, g.tileH, 1,
                         (g.retainMask & meaningful) == meaningful));
            cur = exec.run(cur);
        }
    }
    return cur;
}

} // namespace dse
} // namespace flcnn
