/**
 * @file
 * Request-side types of the serving runtime: the inference request as
 * it travels through the queue, and the completion handle callers wait
 * on.
 *
 * One request is one image for one registered model. The server stamps
 * the submit time on admission; the worker that executes it stamps
 * compute start/end. The three timestamps decompose request latency
 * into the split the stats layer reports: queue wait (submit ->
 * compute start) and compute (start -> end).
 */

#ifndef FLCNN_SERVE_REQUEST_HH
#define FLCNN_SERVE_REQUEST_HH

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>

#include "common/clock.hh"
#include "serve/arena.hh"
#include "tensor/tensor.hh"

namespace flcnn {

/** Terminal state of one request. */
enum class RequestStatus
{
    Pending,    //!< not finished yet (never returned by wait())
    Ok,         //!< executed; output is valid
    Rejected,   //!< refused at admission (queue full, Reject policy)
    Expired,    //!< missed its deadline before compute started
    Cancelled,  //!< server shut down before execution
    Shed,       //!< best-effort request dropped to protect LC budgets
    Invalid,    //!< refused at admission: input shape is not the model's
};

const char *requestStatusName(RequestStatus s);

/**
 * Service class of a registered model. Latency-critical models batch
 * first and carry a p99 latency budget; best-effort models fill the
 * remaining capacity and are shed at admission when the projected
 * latency-critical backlog threatens that budget.
 */
enum class SloClass
{
    LatencyCritical = 0,
    BestEffort = 1,
};

constexpr int kNumSloClasses = 2;

const char *sloClassName(SloClass c);

/**
 * Completion handle for one submitted request. The submitter keeps a
 * shared_ptr and calls wait(); the executing worker fulfills it
 * exactly once. All fields are valid only after wait() returns.
 */
class RequestHandle
{
  public:
    /** Block until the request reaches a terminal state. */
    RequestStatus wait();

    /** Non-blocking probe. */
    bool done() const;

    /** Output tensor (Ok requests only; empty otherwise). On the
     *  zero-copy path this is a view into a worker output arena; the
     *  backing slot is held by this handle and recycles when the
     *  handle is destroyed (or releaseOutput() is called). */
    const Tensor &output() const { return out; }

    /** Drop the output and return its arena slot (if any) to the
     *  worker's pool now, instead of at handle destruction. */
    void
    releaseOutput()
    {
        out = Tensor();
        outLease.release();
    }

    RequestStatus status() const { return st; }
    double submitSeconds() const { return tSubmit; }
    double startSeconds() const { return tStart; }
    double endSeconds() const { return tEnd; }
    double queueWaitSeconds() const { return tStart - tSubmit; }
    double computeSeconds() const { return tEnd - tStart; }
    double totalSeconds() const { return tEnd - tSubmit; }
    int workerId() const { return worker; }
    int64_t batchId() const { return batch; }
    int batchSize() const { return batchN; }

  private:
    friend class InferenceServer;
    friend class WorkerPool;
    friend class DynamicBatcher;

    /** Fulfill with @p status; Ok moves @p result (and the arena
     *  lease backing it, if any) in. Wakes waiters. */
    void complete(RequestStatus status, Tensor result, ArenaLease lease,
                  double t_start, double t_end, int worker_id,
                  int64_t batch_id, int batch_size);

    mutable std::mutex mu;
    std::condition_variable cv;
    RequestStatus st = RequestStatus::Pending;
    Tensor out;
    ArenaLease outLease;  //!< arena slot `out` views (inactive if heap)
    double tSubmit = 0.0;
    double tStart = 0.0;
    double tEnd = 0.0;
    int worker = -1;
    int64_t batch = -1;
    int batchN = 0;
};

using RequestHandlePtr = std::shared_ptr<RequestHandle>;

/** One queued unit of work (request + its completion handle). */
struct QueuedRequest
{
    int64_t id = -1;         //!< server-assigned, monotonically increasing
    int model = 0;           //!< index of the registered model
    Tensor input;            //!< arena view (zero-copy path) or owned
    RequestHandlePtr handle;
    double submitTime = 0.0; //!< monotonicSeconds() at admission
    ArenaLease inputLease;   //!< slot `input` views; released post-run
};

} // namespace flcnn

#endif // FLCNN_SERVE_REQUEST_HH
