#include "model/partition.hh"

#include "common/logging.hh"

namespace flcnn {

std::vector<Partition>
enumeratePartitions(int num_stages)
{
    FLCNN_ASSERT(num_stages >= 1 && num_stages <= 24,
                 "stage count out of enumerable range");
    std::vector<Partition> all;
    const int cuts = num_stages - 1;
    const int64_t total = int64_t{1} << cuts;
    all.reserve(static_cast<size_t>(total));
    for (int64_t mask = 0; mask < total; mask++) {
        Partition p;
        int first = 0;
        for (int s = 0; s < cuts; s++) {
            if (mask & (int64_t{1} << s)) {
                p.push_back(StageGroup{first, s});
                first = s + 1;
            }
        }
        p.push_back(StageGroup{first, num_stages - 1});
        all.push_back(std::move(p));
    }
    return all;
}

int64_t
countPartitions(int num_stages)
{
    FLCNN_ASSERT(num_stages >= 1, "need at least one stage");
    return int64_t{1} << (num_stages - 1);
}

Partition
singletonPartition(int num_stages)
{
    Partition p;
    for (int s = 0; s < num_stages; s++)
        p.push_back(StageGroup{s, s});
    return p;
}

Partition
fullFusionPartition(int num_stages)
{
    return Partition{StageGroup{0, num_stages - 1}};
}

Partition
partitionFromSizes(const std::vector<int> &sizes, int num_stages)
{
    Partition p;
    int at = 0;
    for (int sz : sizes) {
        FLCNN_ASSERT(sz > 0, "group sizes must be positive");
        p.push_back(StageGroup{at, at + sz - 1});
        at += sz;
    }
    FLCNN_ASSERT(at == num_stages, "group sizes must cover all stages");
    return p;
}

void
groupLayerRange(const Network &net, const StageGroup &group,
                int &first_layer, int &last_layer)
{
    const auto &stages = net.stages();
    FLCNN_ASSERT(group.firstStage >= 0 &&
                     group.lastStage <
                         static_cast<int>(stages.size()) &&
                     group.firstStage <= group.lastStage,
                 "stage group out of range for this network");
    first_layer = stages[static_cast<size_t>(group.firstStage)].first;
    last_layer = stages[static_cast<size_t>(group.lastStage)].last;
}

std::string
validatePartition(const Partition &p, int num_stages)
{
    if (p.empty())
        return "partition is empty";
    int expect = 0;
    for (const StageGroup &g : p) {
        if (g.firstStage != expect)
            return "groups are not contiguous";
        if (g.lastStage < g.firstStage)
            return "group is inverted";
        expect = g.lastStage + 1;
    }
    if (expect != num_stages)
        return "groups do not cover all stages";
    return "";
}

std::string
partitionStr(const Partition &p)
{
    std::string out = "(";
    for (size_t i = 0; i < p.size(); i++) {
        if (i)
            out += ", ";
        out += std::to_string(p[i].size());
    }
    return out + ")";
}

} // namespace flcnn
