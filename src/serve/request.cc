#include "serve/request.hh"

#include "common/logging.hh"

namespace flcnn {

const char *
requestStatusName(RequestStatus s)
{
    switch (s) {
      case RequestStatus::Pending:   return "pending";
      case RequestStatus::Ok:        return "ok";
      case RequestStatus::Rejected:  return "rejected";
      case RequestStatus::Expired:   return "expired";
      case RequestStatus::Cancelled: return "cancelled";
      case RequestStatus::Shed:      return "shed";
      case RequestStatus::Invalid:   return "invalid";
    }
    return "?";
}

const char *
sloClassName(SloClass c)
{
    switch (c) {
      case SloClass::LatencyCritical: return "latency_critical";
      case SloClass::BestEffort:      return "best_effort";
    }
    return "?";
}

RequestStatus
RequestHandle::wait()
{
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return st != RequestStatus::Pending; });
    return st;
}

bool
RequestHandle::done() const
{
    std::lock_guard<std::mutex> lk(mu);
    return st != RequestStatus::Pending;
}

void
RequestHandle::complete(RequestStatus status, Tensor result,
                        ArenaLease lease, double t_start, double t_end,
                        int worker_id, int64_t batch_id, int batch_size)
{
    FLCNN_ASSERT(status != RequestStatus::Pending,
                 "complete() needs a terminal status");
    {
        std::lock_guard<std::mutex> lk(mu);
        FLCNN_ASSERT(st == RequestStatus::Pending,
                     "request completed twice");
        st = status;
        out = std::move(result);
        outLease = std::move(lease);
        tStart = t_start;
        tEnd = t_end;
        worker = worker_id;
        batch = batch_id;
        batchN = batch_size;
    }
    cv.notify_all();
}

} // namespace flcnn
