/**
 * @file
 * RequestQueue: the bounded, thread-safe admission point of the
 * serving runtime.
 *
 * Producers (the server's submit path) push requests subject to an
 * explicit overflow policy:
 *
 *  - Reject: a full queue refuses the request immediately — the
 *    backpressure signal an open-loop client needs to shed load;
 *  - Block: the producer waits for space — the natural policy for
 *    closed-loop clients, where blocking *is* the backpressure.
 *
 * Internally the queue keeps one preallocated ring per model, so the
 * steady-state push/pop path is a couple of index updates — no deque
 * node churn, no scans. A global sequence counter stamped at admission
 * preserves FIFO order across models of the same SLO class.
 *
 * The consumer side exposes the primitives the DynamicBatcher builds
 * its coalescing policy from: wait for a head item, count / pop the
 * FIFO run of items for one model, and wait (with deadline) for more
 * items of that model to arrive. waitHead() is SLO-aware: among
 * non-empty models it reports the oldest request of the *highest*
 * class present (latency-critical before best-effort), so LC batches
 * always form first; within a class, cross-model order is strict FIFO.
 *
 * close() transitions the queue to draining: pushes fail with Closed,
 * consumers keep popping until empty, and every waiter wakes.
 */

#ifndef FLCNN_SERVE_REQUEST_QUEUE_HH
#define FLCNN_SERVE_REQUEST_QUEUE_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "serve/request.hh"

namespace flcnn {

/** What a full queue does with a new request. */
enum class OverflowPolicy
{
    Block,   //!< producer waits for space (closed-loop backpressure)
    Reject,  //!< request refused immediately (open-loop load shedding)
};

const char *overflowPolicyName(OverflowPolicy p);

/** Outcome of RequestQueue::push() (Shed and Invalid are produced by
 *  the server's admission control, never by the queue itself). */
enum class AdmitResult
{
    Admitted,
    Rejected,  //!< full under the Reject policy
    Closed,    //!< queue closed (server shutting down)
    Shed,      //!< best-effort request dropped to protect LC budget
    Invalid,   //!< input shape does not match the model's input
};

/** Bounded MPMC queue of inference requests. */
class RequestQueue
{
  public:
    /** @param capacity maximum queued requests (>= 1, validated). */
    RequestQueue(size_t capacity, OverflowPolicy policy);

    /** Declare @p model's SLO class (default LatencyCritical) and
     *  preallocate its ring. Call before serving traffic; not
     *  thread-safe against concurrent push/pop. */
    void setModelClass(int model, SloClass cls);

    /** Admit @p item under the overflow policy. Block-policy pushes
     *  wait until space frees or the queue closes. */
    AdmitResult push(QueuedRequest &&item);

    /**
     * Wait until at least one item is queued or the queue is closed
     * *and* empty (returns false — the consumer's termination
     * signal). @p model receives the model whose request should batch
     * next: the oldest of the highest SLO class present.
     */
    bool waitHead(int *model);

    /** Queued items of @p model right now (batcher planning). */
    size_t countModel(int model) const;

    /** Queued items across all models of @p cls (shed predicate). */
    size_t countClass(SloClass cls) const;

    /**
     * Wait until countModel(model) >= @p target, the queue closes, or
     * @p deadline (monotonicSeconds() value; <= 0 means no wait).
     * Returns the count at wake-up.
     */
    size_t waitModel(int model, size_t target, double deadline);

    /** Pop up to @p max items of @p model in FIFO order into @p out
     *  (appended); other models keep their relative order. Returns the
     *  number popped. */
    size_t popModel(int model, size_t max, std::vector<QueuedRequest> *out);

    /** Stop admitting; wake every producer and consumer. Idempotent. */
    void close();

    bool closed() const;
    size_t size() const;
    size_t capacity() const { return cap; }
    OverflowPolicy policy() const { return pol; }

  private:
    /** Ring slot: the request plus its admission sequence number. */
    struct Slot
    {
        QueuedRequest req;
        uint64_t seq = 0;
    };

    /** Per-model FIFO ring, `cap` slots, preallocated on first use. */
    struct SubQueue
    {
        std::vector<Slot> ring;
        size_t head = 0;
        size_t count = 0;
        SloClass cls = SloClass::LatencyCritical;
    };

    /** Ring for @p model, growing the table on first sight (locked). */
    SubQueue &ensureModel(int model);

    const size_t cap;
    const OverflowPolicy pol;

    mutable std::mutex mu;
    std::condition_variable cvNotEmpty;  //!< consumers / batcher waits
    std::condition_variable cvNotFull;   //!< Block-policy producers
    std::vector<SubQueue> subs;          //!< indexed by model
    size_t total = 0;                    //!< items across all models
    size_t classCount[kNumSloClasses] = {0, 0};
    uint64_t nextSeq = 0;
    bool isClosed = false;
};

} // namespace flcnn

#endif // FLCNN_SERVE_REQUEST_QUEUE_HH
