#include "serve/server.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace_event.hh"

namespace flcnn {

InferenceServer::InferenceServer(ServeConfig config)
    : cfg(config), statsHub(config.maxSpans),
      queue(config.queueCapacity, config.policy),
      batcher(queue, config.batch, config.deadlineSeconds, &statsHub)
{
    if (cfg.workers < 1)
        fatal("server needs >= 1 workers (got %d)", cfg.workers);
    if (cfg.shedHeadroom <= 0)
        fatal("shedHeadroom must be > 0 (got %g)", cfg.shedHeadroom);
}

InferenceServer::~InferenceServer()
{
    drainAndStop();
}

int
InferenceServer::addModel(const std::string &name, const Network &net,
                          const NetworkWeights &weights, int first_layer,
                          int last_layer, const NetPrecision *precision,
                          bool fast_math, bool tune_at_warmup,
                          SloClass slo, double p99_budget_ms)
{
    FLCNN_ASSERT(!isStarted, "addModel() after start()");
    if (last_layer < 0)
        last_layer = net.numLayers() - 1;
    if (first_layer < 0 || last_layer >= net.numLayers() ||
        first_layer > last_layer)
        fatal("model '%s': bad layer range [%d, %d] for a %d-layer "
              "network",
              name.c_str(), first_layer, last_layer, net.numLayers());
    if (p99_budget_ms < 0)
        fatal("model '%s': negative p99 budget", name.c_str());
    ModelSpec spec;
    spec.name = name;
    spec.net = &net;
    spec.weights = &weights;
    spec.firstLayer = first_layer;
    spec.lastLayer = last_layer;
    spec.tip = cfg.tip;
    spec.precision = precision;
    spec.fastMath = fast_math;
    spec.tuneAtWarmup = tune_at_warmup;
    spec.slo = slo;
    spec.p99BudgetMs = p99_budget_ms;

    // Register the fusion-plan template and validate it against the
    // supported-fusions table now, so an unsupported combination is a
    // typed error at registration — not a surprise inside a worker
    // thread, and never a silent fallback to another engine.
    auto plan = std::make_shared<FusionPlan>(net, weights);
    plan->addRange(first_layer, last_layer);
    PlanCompileOptions popt;
    popt.engine = cfg.engine;
    popt.tip = cfg.tip;
    popt.precision = precision;
    popt.fastMath = fast_math;
    CompileStatus st = plan->check(popt);
    if (st != CompileStatus::Ok) {
        fatal("model '%s': fusion plan rejected for the %s engine "
              "(%s)",
              name.c_str(), planEngineName(cfg.engine),
              plan->diagnostic().c_str());
    }
    spec.plan = std::move(plan);

    specs.push_back(std::move(spec));
    return static_cast<int>(specs.size()) - 1;
}

void
InferenceServer::start()
{
    FLCNN_ASSERT(!isStarted, "server already started");
    if (specs.empty())
        fatal("start() with no registered models");

    // Wire the SLO classes into the queue (priority) and the stats
    // hub (per-model / per-class breakdowns), and find the tightest
    // latency-critical budget the shedder defends.
    std::vector<std::string> names;
    std::vector<SloClass> classes;
    names.reserve(specs.size());
    classes.reserve(specs.size());
    minLcBudgetSeconds = 0.0;
    int64_t maxInElems = 0;
    for (size_t m = 0; m < specs.size(); m++) {
        const ModelSpec &spec = specs[m];
        names.push_back(spec.name);
        classes.push_back(spec.slo);
        queue.setModelClass(static_cast<int>(m), spec.slo);
        if (spec.slo == SloClass::LatencyCritical &&
            spec.p99BudgetMs > 0) {
            const double s = spec.p99BudgetMs / 1000.0;
            minLcBudgetSeconds = minLcBudgetSeconds == 0.0
                                     ? s
                                     : std::min(minLcBudgetSeconds, s);
        }
        maxInElems = std::max(
            maxInElems, spec.net->inShape(spec.firstLayer).elems());
    }
    statsHub.setModels(names, classes);
    statsHub.setWorkers(cfg.workers);

    // Input arena: sized so every queued request plus every in-flight
    // batch item can hold a slot (input slots free at compute end).
    const size_t in_slots =
        cfg.inputArenaSlots > 0
            ? cfg.inputArenaSlots
            : cfg.queueCapacity +
                  static_cast<size_t>(cfg.workers) *
                      static_cast<size_t>(cfg.batch.maxBatch);
    inputArena = TensorArena::create(maxInElems,
                                     static_cast<int>(in_slots));

    // Handle pool: a handle lives from submit until the client drops
    // it; queued + in-flight + a reaping margin covers the steady
    // state, and overflow is a counted heap fallback.
    handlePool = std::make_unique<HandlePool>(
        static_cast<int>(2 * in_slots + 16));

    WorkerPoolOptions opt;
    opt.numWorkers = cfg.workers;
    opt.engine = cfg.engine;
    opt.intraOp = cfg.intraOp;
    opt.warmup = cfg.warmup;
    opt.pinWorkers = cfg.pinWorkers;
    opt.outArenaSlots = cfg.outArenaSlots;
    workers = std::make_unique<WorkerPool>(opt, specs, batcher,
                                           statsHub);
    workers->start();
    workers->waitReady();
    isStarted = true;
}

InputSlot
InferenceServer::acquireInput(int model)
{
    FLCNN_ASSERT(isStarted, "acquireInput() before start()");
    InputSlot slot;
    slot.model = model;
    // An unknown id gets an empty slot; submit() completes it Invalid.
    if (model < 0 || model >= static_cast<int>(specs.size()))
        return slot;
    const ModelSpec &spec = specs[static_cast<size_t>(model)];
    const Shape &in = spec.net->inShape(spec.firstLayer);
    slot.tensor = inputArena->acquireTensor(in, &slot.lease);
    slot.fallback = !slot.lease.active();
    return slot;
}

SubmitResult
InferenceServer::submit(InputSlot &&slot)
{
    return submitImpl(slot.model, std::move(slot.tensor),
                      std::move(slot.lease));
}

SubmitResult
InferenceServer::submit(int model, Tensor input)
{
    return submitImpl(model, std::move(input), ArenaLease());
}

bool
InferenceServer::shouldShed() const
{
    if (minLcBudgetSeconds <= 0)
        return false;  // no LC budget declared: never shed
    const double ema =
        statsHub.classComputeEmaSeconds(SloClass::LatencyCritical);
    if (ema <= 0)
        return false;  // no LC completions yet: nothing to project
    // Price the queued LC backlog (plus the batch being formed) at
    // the observed LC compute EMA, spread across the workers. When
    // that projected wait eats past the headroom fraction of the
    // tightest budget, best-effort admissions start to shed.
    const double backlog = static_cast<double>(
        queue.countClass(SloClass::LatencyCritical) + 1);
    const double projected = backlog * ema / cfg.workers;
    return projected > cfg.shedHeadroom * minLcBudgetSeconds;
}

SubmitResult
InferenceServer::submitImpl(int model, Tensor &&input,
                            ArenaLease &&lease)
{
    FLCNN_ASSERT(isStarted, "submit() before start()");

    SubmitResult res;
    res.id = nextRequestId.fetch_add(1, std::memory_order_relaxed);
    res.handle = handlePool->acquire();
    statsHub.onSubmitted();

    // A request the engines cannot run (an unknown model id or a
    // wrong input shape) is refused here, with a typed status, instead
    // of ending the process or failing an executor assertion in a
    // worker.
    const ModelSpec *spec =
        model >= 0 && model < static_cast<int>(specs.size())
            ? &specs[static_cast<size_t>(model)]
            : nullptr;
    if (!spec ||
        !(input.shape() == spec->net->inShape(spec->firstLayer))) {
        statsHub.onInvalid();
        lease.release();
        res.admit = AdmitResult::Invalid;
        res.handle->complete(RequestStatus::Invalid, Tensor(),
                             ArenaLease(), 0.0, 0.0, -1, -1, 0);
        return res;
    }

    // Admission control: shedding protects the latency-critical
    // budget from best-effort pressure before the queue sees it.
    if (spec->slo == SloClass::BestEffort && shouldShed()) {
        statsHub.onShed();
        lease.release();
        res.admit = AdmitResult::Shed;
        res.handle->complete(RequestStatus::Shed, Tensor(),
                             ArenaLease(), 0.0, 0.0, -1, -1, 0);
        return res;
    }

    QueuedRequest qr;
    qr.id = res.id;
    qr.model = model;
    qr.input = std::move(input);
    qr.handle = res.handle;
    qr.submitTime = monotonicSeconds();
    qr.inputLease = std::move(lease);
    res.handle->tSubmit = qr.submitTime;

    res.admit = queue.push(std::move(qr));
    switch (res.admit) {
      case AdmitResult::Admitted:
        statsHub.onAdmitted();
        break;
      case AdmitResult::Rejected:
        statsHub.onRejected();
        res.handle->complete(RequestStatus::Rejected, Tensor(),
                             ArenaLease(), 0.0, 0.0, -1, -1, 0);
        break;
      case AdmitResult::Closed:
        statsHub.onCancelled();
        res.handle->complete(RequestStatus::Cancelled, Tensor(),
                             ArenaLease(), 0.0, 0.0, -1, -1, 0);
        break;
      case AdmitResult::Shed:
      case AdmitResult::Invalid:
        panic("queue returned a server-side admission outcome");
    }
    // On Rejected/Closed `qr` kept its input and lease (push() only
    // consumes admitted items); both free here as qr goes out of
    // scope, returning the arena slot.
    return res;
}

void
InferenceServer::drainAndStop()
{
    if (!isStarted || isStopped)
        return;
    queue.close();
    workers->join();
    isStopped = true;
}

ArenaStats
InferenceServer::inputArenaStats() const
{
    return inputArena ? inputArena->stats() : ArenaStats();
}

ArenaStats
InferenceServer::outputArenaStats() const
{
    return workers ? workers->outputArenaStats() : ArenaStats();
}

int64_t
InferenceServer::handleHeapFallbacks() const
{
    return handlePool ? handlePool->heapFallbacks() : 0;
}

int
InferenceServer::pinnedWorkers() const
{
    return workers ? workers->pinnedWorkers() : 0;
}

void
InferenceServer::registerMetrics(MetricsRegistry &reg) const
{
    statsHub.registerInto(reg);
    const ArenaStats in = inputArenaStats();
    const ArenaStats out = outputArenaStats();
    reg.addCounter("serve:arena", "input_acquires", in.acquires);
    reg.addCounter("serve:arena", "input_fallbacks",
                   in.exhaustedFallbacks + in.oversizedFallbacks);
    reg.addCounter("serve:arena", "output_acquires", out.acquires);
    reg.addCounter("serve:arena", "output_fallbacks",
                   out.exhaustedFallbacks + out.oversizedFallbacks);
    reg.addCounter("serve:arena", "handle_heap_fallbacks",
                   handleHeapFallbacks());
    reg.setGauge("serve:arena", "input_slots", in.slots);
    reg.setGauge("serve:arena", "output_slots", out.slots);
    reg.setGauge("serve:arena", "input_peak_in_use", in.peakInUse);
    reg.setGauge("serve:arena", "output_peak_in_use", out.peakInUse);
}

void
InferenceServer::appendTrace(ChromeTrace &tr, int pid) const
{
    statsHub.appendRequestTrace(tr, pid, pid + 1);
}

} // namespace flcnn
