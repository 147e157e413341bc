/**
 * @file
 * ServeEngine: one worker's pinned fusion plan for one model.
 *
 * Every serving worker owns one engine per registered model. An engine
 * wraps a FusionPlan (fusion/fusion_plan.hh) compiled onto one of the
 * repo's bit-exact evaluation strategies — the pyramid executor under
 * reuse or recompute, the row-streaming line buffer, or the
 * layer-by-layer reference — so the serving layer is agnostic to
 * which dataflow the deployment picked.
 *
 * The boundary is compile-once / execute-many: addModel() validates a
 * plan template against the supported-fusions table (a typed
 * CompileStatus fatal at registration, never a silent fallback),
 * warmup() compiles each worker's private copy (solver resolution,
 * executor build, weight pre-packing, optional autotune), and the
 * steady-state request loop only calls execute(). A run() before any
 * warmup compiles lazily, once, and is counted (lazyCompiles()).
 *
 * All engines produce outputs bit-identical to nn::runRange over the
 * same layer range — the property the serving differential tests
 * assert batch-by-batch.
 */

#ifndef FLCNN_SERVE_ENGINE_HH
#define FLCNN_SERVE_ENGINE_HH

#include <memory>
#include <string>

#include "fusion/fusion_plan.hh"
#include "nn/network.hh"
#include "nn/weights.hh"
#include "serve/request.hh"

namespace flcnn {

/** Older spelling of PlanEngine, kept for existing callers. */
using EngineKind = PlanEngine;

/** One model as registered with the server. The referenced network
 *  and weights must outlive every engine built from the spec. */
struct ModelSpec
{
    std::string name;
    const Network *net = nullptr;
    const NetworkWeights *weights = nullptr;
    int firstLayer = 0;
    int lastLayer = 0;   //!< inclusive; set by the server at addModel
    int tip = 1;         //!< pyramid tip (PlanCompileOptions::tip)
    /** Precision state for non-fp32 serving (nullptr = fp32). Must be
     *  calibrated for @p net + @p weights and outlive every engine. */
    const NetPrecision *precision = nullptr;
    /** Serve fp32 requests through the fast-math conv tier
     *  (ULP-bounded, not bit-exact; see tune/solver.hh). Ignored by
     *  non-fp32 precision modes and by the Reference engine — both
     *  always stay exact. */
    bool fastMath = false;
    /** Autotune every conv layer of the range when the plan compiles
     *  (results land in the process-wide tune cache, so the serving
     *  loop runs tuned plans from the first request). Warm tune-cache
     *  entries make this a no-op — tune once per machine, serve
     *  forever. */
    bool tuneAtWarmup = false;
    /** Service class: latency-critical models batch first and carry a
     *  p99 budget; best-effort models are shed at admission when the
     *  projected LC backlog threatens that budget. */
    SloClass slo = SloClass::LatencyCritical;
    /** p99 latency budget in milliseconds (latency-critical models;
     *  0 = unspecified, disables shedding on this model's behalf). */
    double p99BudgetMs = 0.0;
    /** Plan template registered by addModel(): the op sequence,
     *  already check()ed against the server's engine kind. Uncompiled
     *  (compiled plans pin per-worker executors); every worker engine
     *  copies it and compiles privately at warmup. Null = the engine
     *  declares its own plan from [firstLayer, lastLayer]. */
    std::shared_ptr<const FusionPlan> plan;
};

/** A pinned per-worker fusion plan instance for one model. */
class ServeEngine
{
  public:
    ServeEngine(const ModelSpec &spec, PlanEngine kind);

    /** Evaluate one image; bit-identical to the reference range.
     *  Compiles the plan lazily (counted) if warmup() was skipped. */
    Tensor run(const Tensor &input);

    /** As run(), but store into @p out (shape must be outShape()).
     *  Every element is written, so @p out may be an unzeroed arena
     *  view — the zero-copy serving path. Only valid when
     *  producesInto() (the Reference engine returns by value). */
    void runInto(const Tensor &input, Tensor *out);

    /** Whether runInto() is available (all executor-backed engines;
     *  the Reference baseline is exempt from the zero-copy path). */
    bool producesInto() const { return knd != PlanEngine::Reference; }

    /** Output shape of the served layer range. */
    Shape outShape() const { return mspec.net->outShape(mspec.lastLayer); }

    /** Input shape the served range expects. */
    Shape inShape() const { return mspec.net->inShape(mspec.firstLayer); }

    /** Compile the plan: resolve solvers (autotuning first when the
     *  spec asks), build the executor, pre-pack weights. Idempotent;
     *  fatal()s with the typed status if the plan does not compile. */
    void warmup();

    PlanEngine kind() const { return knd; }
    const ModelSpec &spec() const { return mspec; }

    /** The engine's pinned plan (compiled after warmup() or the first
     *  run()). */
    const FusionPlan &plan() const { return fplan; }

    /** Number of run()/runInto() calls that had to compile lazily
     *  because warmup() was skipped (0 on the compile-once path). */
    int lazyCompiles() const { return lazyCount; }

  private:
    void compileNow();

    ModelSpec mspec;
    PlanEngine knd;
    FusionPlan fplan;
    int lazyCount = 0;
};

} // namespace flcnn

#endif // FLCNN_SERVE_ENGINE_HH
