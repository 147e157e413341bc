/**
 * @file
 * Workload serve-mixed: one InferenceServer with two tenants, requests
 * alternating between them — the AlexNet fused prefix in fp32 (11x11
 * stride-4 and 5x5 kernels) and VGG-E's first five convolutions in
 * int8. Phase 1 is a closed loop with nproc clients and gives
 * throughput. Phase 2 is an open loop at one fixed rate (kOpenLoopRps,
 * near half of the closed-loop capacity on a 4-core host) and gives
 * latency, timed from each request's due time. Workers x intra-op
 * threads = nproc x 1.
 *
 * It is the only workload where the serve layer (queue, batcher,
 * arenas, workers) does work, and it uses the kernels and executor
 * differently from vgg5-image: parallelism across requests instead of
 * within one, int8 and strided kernels, and request sizes that differ
 * by ~3x.
 */

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "fusion/fusion_plan.hh"
#include "nn/precision.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "serve/server.hh"

using namespace flcnn;

namespace perfbench {
namespace {

/** Open-loop arrival rate (requests per second, both tenants). */
constexpr double kOpenLoopRps = 20.0;
constexpr int kInputs = 4;  //!< distinct images per tenant, cycled
/** First request index of an open-loop phase (closed-loop indices
 *  start at 0), so request ids stay unique across phases. */
constexpr int64_t kOpenLoopBase = 1'000'000'000;
constexpr int kTenants = 2;
const char *const kTenantNames[kTenants] = {"alexnet", "vgg5"};

struct Tenant
{
    Network net;
    NetworkWeights weights;
    NetPrecision precision;  //!< fp32 (default) or calibrated int8
    std::vector<Tensor> inputs;

    Tenant(Network n, uint64_t seed, Precision mode)
        : net(std::move(n)), weights(seededWeights(net, subSeed(seed, 1))),
          precision(NetPrecision::calibrate(net, weights, mode, 2,
                                            subSeed(seed, 2))),
          inputs(seededInputs(net, kInputs, subSeed(seed, 3)))
    {
    }

    const NetPrecision *
    prec() const
    {
        return precision.mode() == Precision::Fp32 ? nullptr : &precision;
    }
};

struct State
{
    std::vector<std::unique_ptr<Tenant>> tenants;
    std::unique_ptr<InferenceServer> server;
    double warmupS = 0.0;  //!< server start(): worker compile + warm-up

    State(uint64_t seed, int workers)
    {
        tenants.push_back(std::make_unique<Tenant>(
            alexnetFusedPrefix(), subSeed(seed, 10), Precision::Fp32));
        tenants.push_back(std::make_unique<Tenant>(
            vggEPrefix(5), subSeed(seed, 20), Precision::Int8));
        ServeConfig cfg;
        cfg.workers = workers;
        cfg.queueCapacity = 64;
        cfg.policy = OverflowPolicy::Block;
        cfg.engine = EngineKind::LineBuffer;
        server = std::make_unique<InferenceServer>(cfg);
        for (int m = 0; m < kTenants; m++) {
            const Tenant &t = *tenants[static_cast<size_t>(m)];
            server->addModel(kTenantNames[m], t.net, t.weights, 0, -1,
                             t.prec());
        }
        const double t0 = now();
        server->start();
        warmupS = now() - t0;
        // Warm-up requests: every worker serves both tenants once.
        std::vector<RequestHandlePtr> hs;
        for (int i = 0; i < 2 * workers * kTenants; i++)
            hs.push_back(submit(i % kTenants, 0).handle);
        for (RequestHandlePtr &h : hs) {
            if (h->wait() != RequestStatus::Ok)
                fatal("serve warm-up request failed");
        }
    }

    /** Zero-copy submission of input @p k of tenant @p m. */
    SubmitResult
    submit(int m, int k)
    {
        const Tensor &x =
            tenants[static_cast<size_t>(m)]->inputs[static_cast<size_t>(k)];
        InputSlot slot = server->acquireInput(m);
        std::memcpy(slot.tensor.data(), x.data(),
                    static_cast<size_t>(x.elems()) * sizeof(float));
        return server->submit(std::move(slot));
    }
};

/** One finished request, as the client saw it. */
struct Record
{
    int64_t index = 0;
    int tenant = 0;
    double due = 0.0;      //!< open loop: when it should have been sent
    double acquire = 0.0;  //!< acquireInput() called
    double admitted = 0.0; //!< submit() returned
    RequestHandlePtr handle;
    bool ok = false;
};

using Refs = std::vector<std::vector<Tensor>>;

/** Check one completed request; returns the failure text or "". */
std::string
checkRecord(const Record &r, const Refs &refs, bool corrupt)
{
    const RequestStatus st = r.handle->status();
    if (st != RequestStatus::Ok)
        return std::string("request ") + std::to_string(r.index) + " " +
               requestStatusName(st);
    const size_t k = static_cast<size_t>((r.index / kTenants) % kInputs);
    const Tensor &ref = refs[static_cast<size_t>(r.tenant)][k];
    if (corrupt && r.index == 2) {
        Tensor y = r.handle->output();
        flipOneBit(y);
        return bitEqual(y, ref) ? "" : "request 2 output corrupted";
    }
    return bitEqual(r.handle->output(), ref)
               ? ""
               : "request " + std::to_string(r.index) +
                     " differs from its precision reference";
}

/** Phase 1: nproc clients in a closed loop; returns completed/s. */
double
closedLoop(State &s, const Refs &refs, double seconds, int clients,
           const RunOptions &opt, Outcome &out)
{
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> completed{0};
    std::mutex mu;  // guards out.ledger
    const double t0 = now();
    const double t_end = t0 + seconds;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; c++) {
        threads.emplace_back([&] {
            while (now() < t_end) {
                Record r;
                r.index = next.fetch_add(1);
                r.tenant = static_cast<int>(r.index % kTenants);
                r.handle = s.submit(r.tenant, static_cast<int>(
                                                  (r.index / kTenants) %
                                                  kInputs))
                               .handle;
                r.handle->wait();
                const std::string err = checkRecord(r, refs, opt.corrupt);
                if (r.handle->status() == RequestStatus::Ok)
                    completed.fetch_add(1);
                std::lock_guard<std::mutex> lk(mu);
                out.ledger.check(err.empty(), err);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    return static_cast<double>(completed.load()) / (now() - t0);
}

/**
 * Phase 2: one generator sends on a fixed schedule (request i due at
 * t0 + i / rate) regardless of completions; a reaper retires handles
 * in order so arena slots recycle at the completion rate. Returns the
 * finished records (handles kept for their timestamps, outputs
 * released).
 */
std::vector<Record>
openLoop(State &s, const Refs &refs, double seconds, int64_t first_index,
         const RunOptions &opt, Outcome &out)
{
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Record> pending;
    bool done = false;
    std::vector<Record> finished;
    std::thread reaper([&] {
        for (;;) {
            Record r;
            {
                std::unique_lock<std::mutex> lk(mu);
                cv.wait(lk, [&] { return !pending.empty() || done; });
                if (pending.empty())
                    return;
                r = std::move(pending.front());
                pending.pop_front();
            }
            r.handle->wait();
            const std::string err = checkRecord(r, refs, opt.corrupt);
            r.ok = err.empty();
            r.handle->releaseOutput();
            std::lock_guard<std::mutex> lk(mu);
            out.ledger.check(r.ok, err);
            finished.push_back(std::move(r));
        }
    });
    const auto clock0 = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(10);
    const double t0 =
        std::chrono::duration<double>(clock0.time_since_epoch()).count();
    for (int64_t i = 0;; i++) {
        const double offset = static_cast<double>(i) / kOpenLoopRps;
        if (offset >= seconds)
            break;
        std::this_thread::sleep_until(
            clock0 + std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(offset)));
        Record r;
        r.index = first_index + i;
        r.tenant = static_cast<int>(r.index % kTenants);
        r.due = t0 + offset;
        r.acquire = now();
        r.handle = s.submit(r.tenant, static_cast<int>(
                                          (r.index / kTenants) % kInputs))
                       .handle;
        r.admitted = now();
        {
            std::lock_guard<std::mutex> lk(mu);
            pending.push_back(std::move(r));
        }
        cv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lk(mu);
        done = true;
    }
    cv.notify_one();
    reaper.join();
    return finished;
}

/** Due-to-end latencies (s) of the successful records of @p tenant. */
std::vector<double>
latencies(const std::vector<Record> &rs, int tenant)
{
    std::vector<double> v;
    for (const Record &r : rs) {
        if (r.ok && r.tenant == tenant)
            v.push_back(r.handle->endSeconds() - r.due);
    }
    return v;
}

/**
 * The mean over tenants of each tenant's latency quantile @p q. The
 * pooled distribution is bimodal (the VGG-5 int8 requests take ~3x the
 * AlexNet ones) with half its mass in each mode, so its median falls in
 * the gap between them and is set by the two extreme samples there;
 * the per-tenant quantiles are each inside one mode and repeat.
 */
double
tenantMeanQuantile(const std::vector<Record> &rs, double q)
{
    double sum = 0.0;
    for (int t = 0; t < kTenants; t++)
        sum += quantile(latencies(rs, t), q);
    return sum / kTenants;
}

/** Spans of the open-loop records: one tree per request. */
void
traceRecords(const std::vector<Record> &rs, Tracer &tr)
{
    for (const Record &r : rs) {
        const RequestHandle &h = *r.handle;
        const int root = tr.add("serve.request", r.due, h.endSeconds(), -1,
                                r.index);
        tr.add("bench.generator_late", r.due, r.acquire, root, r.index);
        tr.add("serve.admit", r.acquire, r.admitted, root, r.index);
        tr.add("serve.queue", h.submitSeconds(), h.startSeconds(), root,
               r.index);
        tr.add("fusion.execute", h.startSeconds(), h.endSeconds(), root,
               r.index);
    }
}

void
reportLayers(State &s, const std::vector<Record> &rs,
             const std::vector<double> &warmup_s, Outcome &out)
{
    MetricSink &m = out.metrics;
    std::vector<double> admit, queue, late;
    std::vector<double> compute[kTenants];
    for (const Record &r : rs) {
        const RequestHandle &h = *r.handle;
        admit.push_back(r.admitted - r.acquire);
        late.push_back(r.acquire - r.due);
        if (!r.ok)
            continue;
        queue.push_back(h.queueWaitSeconds());
        compute[r.tenant].push_back(h.computeSeconds());
    }
    m.set("serve.admit_us_p50", median(admit) * 1e6, "us");
    m.set("serve.admit_us_p90", quantile(admit, 0.9) * 1e6, "us");
    m.set("serve.queue_wait_ms_p50", median(queue) * 1e3, "ms");
    m.set("serve.queue_wait_ms_p90", quantile(queue, 0.9) * 1e3, "ms");

    // Isolated reference point for interference: the same plan, alone,
    // on one thread (what each serving worker gets).
    double compile_ms = 0.0;
    for (int t = 0; t < kTenants; t++) {
        const Tenant &tn = *s.tenants[static_cast<size_t>(t)];
        const std::string name = kTenantNames[t];
        FusionPlan plan(tn.net, tn.weights);
        plan.addRange(0, tn.net.numLayers() - 1);
        PlanCompileOptions copt;
        copt.engine = PlanEngine::LineBuffer;
        copt.precision = tn.prec();
        Scope sp(&out.tracer, "fusion.isolated." + name);
        ThreadPool::InlineScope one_thread;
        if (plan.compile(copt) != CompileStatus::Ok)
            fatal("%s plan: %s", name.c_str(), plan.diagnostic().c_str());
        compile_ms += plan.compileSeconds() * 1e3;
        const double iso = medianSeconds(
            5, [&] { (void)plan.execute(tn.inputs[0]); });
        const double c50 = median(compute[t]);
        m.set("serve.compute_ms_p50." + name, c50 * 1e3, "ms");
        m.set("serve.interference." + name, c50 / iso, "x");
        m.set("serve.latency_p90_ms." + name,
              quantile(latencies(rs, t), 0.9) * 1e3, "ms");
    }
    const ServerStats &st = s.server->stats();
    const ArenaStats in = s.server->inputArenaStats();
    const ArenaStats outa = s.server->outputArenaStats();
    m.set("serve.mean_batch", st.meanBatch(), "requests");
    m.set("serve.warmup_s", median(warmup_s), "s");
    m.set("serve.generator_late_ms_p90", quantile(late, 0.9) * 1e3, "ms");
    m.set("serve.rejected", static_cast<double>(st.rejected()), "count");
    m.set("serve.expired", static_cast<double>(st.expired()), "count");
    m.set("serve.shed", static_cast<double>(st.shed()), "count");
    m.set("serve.arena_fallbacks",
          static_cast<double>(in.exhaustedFallbacks + in.oversizedFallbacks +
                              outa.exhaustedFallbacks +
                              outa.oversizedFallbacks +
                              s.server->handleHeapFallbacks()),
          "count");
    m.set("serve.compile_ms", compile_ms, "ms");
}

} // namespace

void
runServeMixed(const RunOptions &opt, Outcome &out)
{
    double setup_s = 0.0;
    std::vector<double> warmup_s;
    auto s = timedSetup<std::unique_ptr<State>>(
        setupReps(opt),
        [&] {
            auto st = std::make_unique<State>(opt.seed, opt.threads);
            warmup_s.push_back(st->warmupS);
            return st;
        },
        &setup_s);

    Refs refs(kTenants);
    for (int t = 0; t < kTenants; t++) {
        const Tenant &tn = *s->tenants[static_cast<size_t>(t)];
        for (const Tensor &x : tn.inputs)
            refs[static_cast<size_t>(t)].push_back(runRange(
                tn.net, tn.weights, x, 0, tn.net.numLayers() - 1,
                tn.prec()));
    }

    const double phase = opt.seconds / 2;
    const double rps =
        closedLoop(*s, refs, phase, opt.threads, opt, out);
    const std::vector<Record> open =
        openLoop(*s, refs, phase, kOpenLoopBase, opt, out);
    std::printf("closed loop %.2f req/s; open loop at %.1f req/s: %zu "
                "requests\n",
                rps, kOpenLoopRps, open.size());

    const ServerStats &st = s->server->stats();
    out.ledger.invariant(
        st.submitted() ==
            st.admitted() + st.rejected() + st.cancelled() + st.shed(),
        "serve ledger: submitted != admitted + rejected + cancelled + "
        "shed");

    if (!opt.trace) {
        out.metrics.set("setup_s", setup_s, "s");
        out.metrics.set("peak_rss_mb", peakRssMb(), "MB");
        out.metrics.set("latency_p50_ms", tenantMeanQuantile(open, 0.5) * 1e3,
                        "ms");
        out.metrics.set("throughput_ops", rps, "ops/s");
        return;
    }
    const std::vector<Record> traced =
        openLoop(*s, refs, phase, 2 * kOpenLoopBase, opt, out);
    traceRecords(traced, out.tracer);
    out.loopSpans = out.tracer.size();
    out.tracedOps = static_cast<int64_t>(traced.size());
    out.untracedOp = tenantMeanQuantile(open, 0.5);
    out.tracedOp = tenantMeanQuantile(traced, 0.5);
    reportLayers(*s, traced, warmup_s, out);
}

} // namespace perfbench
