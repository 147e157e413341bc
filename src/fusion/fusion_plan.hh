/**
 * @file
 * FusionPlan: an explicit compile/execute contract over the fusion
 * executors, in the style of MIOpen's Fusion API.
 *
 * Callers declare an op sequence (network layer indices), pick an
 * engine, and compile(). Compilation validates the sequence against
 * the supported-fusions table below, resolves every convolution
 * through the solver registry (tune/solver.hh), builds the pinned
 * executor, and optionally pre-packs weights with one zero-image run —
 * or returns a *typed* CompileStatus explaining why the combination is
 * unsupported. Nothing ever silently routes to the reference path: the
 * Reference engine is an explicit choice, counted separately, and a
 * rejected compile leaves the plan un-executable.
 *
 * Supported-fusions table (PlanEngine x op kinds):
 *
 *   engine      | accepted op sequences
 *   ------------+----------------------------------------------------
 *   Fused       | path-shaped runs of Pad / Conv / Pool / ReLU / LRN
 *   LineBuffer  | (the three engines share one precondition set and
 *   Recompute   |  one executor, FusedExecutor; only the plan differs)
 *   Reference   | any path-shaped single-input run (FC included)
 *
 * Everything else is a typed rejection: multi-input joins (Add,
 * Concat) return MultiInputOp, FullyConnected under a fused engine
 * returns UnsupportedOp, gaps or reorderings in the op list return
 * NonContiguousOp, and a range crossing a fan-out returns
 * UnsupportedSequence (an escaping intermediate cannot stay
 * unmaterialized inside a pyramid).
 *
 * Execution is compile-once / execute-many: execute() runs the pinned
 * executor and is the only per-request work. A FusionPlan is copyable
 * as a *template* — the copy carries the op list and network/weight
 * references but starts uncompiled (executors hold run-state and are
 * not shareable across threads); each serving worker copies the
 * registered template and compiles privately at warmup.
 */

#ifndef FLCNN_FUSION_FUSION_PLAN_HH
#define FLCNN_FUSION_FUSION_PLAN_HH

#include <memory>
#include <string>
#include <vector>

#include "nn/network.hh"
#include "nn/precision.hh"
#include "nn/weights.hh"
#include "tensor/tensor.hh"

namespace flcnn {

class FusedExecutor;
class MetricsRegistry;

/** Which executor a plan compiles onto (also the serving runtime's
 *  engine choice). */
enum class PlanEngine
{
    Reference,   //!< layer-by-layer nn::runRange (explicit choice)
    Fused,       //!< FusedExecutor over tip x tip pyramids (reuse)
    LineBuffer,  //!< FusedExecutor over one column of full-width
                 //!< pyramids, tip rows tall (reuse)
    Recompute,   //!< FusedExecutor over a recompute TilePlan (retain =
                 //!< false: no reuse buffers, Section III-C)
};

const char *planEngineName(PlanEngine e);

/** Parse an engine name ("reference" | "fused" | "linebuffer" |
 *  "recompute", the planEngineName() strings); fatal()s on anything
 *  else. */
PlanEngine planEngineFromName(const std::string &name);

/** Typed outcome of FusionPlan::compile() / check(). */
enum class CompileStatus
{
    Ok,                  //!< plan is pinned and executable
    EmptyPlan,           //!< no ops were added
    InvalidOp,           //!< an op index is outside the network
    DuplicateOp,         //!< the same layer was added twice
    NonContiguousOp,     //!< ops are not consecutive ascending layers
    MultiInputOp,        //!< an op joins >= 2 edges (Add, Concat)
    UnsupportedOp,       //!< op kind outside the engine's table (FC)
    UnsupportedSequence, //!< range is not a path (fan-out escapes it)
    AlreadyCompiled,     //!< compile() on a compiled plan
};

const char *compileStatusName(CompileStatus s);

/** Knobs for FusionPlan::compile(). */
struct PlanCompileOptions
{
    PlanEngine engine = PlanEngine::Fused;
    /** Pyramid tip: tip x tip output pixels for Fused / Recompute,
     *  tip full-width output rows for LineBuffer. */
    int tip = 1;

    /** Precision state (nullptr = fp32); must be calibrated for the
     *  plan's network + weights and outlive the compiled plan. */
    const NetPrecision *precision = nullptr;

    /** Compile fp32 convs onto the fast-math solver tier (ULP-bounded;
     *  ignored by non-fp32 modes and the Reference engine). */
    bool fastMath = false;

    /** Autotune the range's conv queries before resolving solvers
     *  (results persist in the process tune cache). */
    bool tuneFirst = false;

    /** Pre-pack weights with one zero-image run, so the first real
     *  execute() pays no packing cost. */
    bool prepackWeights = true;

    /** Count compile/execute outcomes under the "plan" scope:
     *  compiles, compile_ok, compile_rejected, reference_compiles,
     *  executes, silent_fallbacks (always 0 — the counter exists so
     *  CI can assert the contract). The registry must outlive the
     *  plan or the next compile(). */
    MetricsRegistry *metrics = nullptr;
};

/**
 * A declared op sequence plus, after a successful compile(), the
 * pinned executor that runs it. The referenced network and weights
 * must outlive the plan.
 */
class FusionPlan
{
  public:
    FusionPlan(const Network &net, const NetworkWeights &weights);
    ~FusionPlan();

    /** Copying clones the declaration (ops + references) but not the
     *  compiled state: the copy starts uncompiled. */
    FusionPlan(const FusionPlan &other);
    FusionPlan &operator=(const FusionPlan &other);

    /** Append network layer @p layer_idx to the op sequence. All
     *  validation beyond this bookkeeping happens in compile()/check()
     *  so that every misuse surfaces as one typed status. Fatal only
     *  if called after a successful compile(). */
    void addOp(int layer_idx);

    /** Append layers [first, last] in order. */
    void addRange(int first_layer, int last_layer);

    const std::vector<int> &ops() const { return opList; }

    /**
     * Validate the op sequence against @p opt's engine without
     * building anything. Pure: no executor, no packing, no metrics.
     * compile() begins with exactly this check.
     */
    CompileStatus check(const PlanCompileOptions &opt) const;

    /**
     * Validate, resolve conv solvers, build the engine's executor,
     * and (by default) pre-pack weights. Returns Ok and pins the plan,
     * or a typed status leaving the plan un-executable (a later
     * compile() with fixed inputs may succeed). Never asserts on a
     * declaration error and never falls back to another engine.
     */
    CompileStatus compile(const PlanCompileOptions &opt);

    bool compiled() const { return isCompiled; }

    /** Engine the plan compiled onto (valid once compiled()). */
    PlanEngine engine() const { return opt_.engine; }

    /** First / last network layer of the compiled range. */
    int firstLayer() const;
    int lastLayer() const;

    /** Input / output shape of the declared range. */
    Shape inShape() const;
    Shape outShape() const;

    /** Execute the pinned plan on one input; bit-identical to
     *  nn::runRange over the same range, precision, and math tier.
     *  fatal() when the plan is not compiled. */
    Tensor execute(const Tensor &input);

    /** As execute(), into @p out (shape outShape(), may be an unzeroed
     *  arena view). Only when producesInto(). */
    void executeInto(const Tensor &input, Tensor *out);

    /** Whether executeInto() is available (every engine but
     *  Reference). */
    bool producesInto() const;

    /** Wall seconds the successful compile() took (solver resolution,
     *  executor build, pre-packing). */
    double compileSeconds() const { return compileSecs; }

    /** Resolved solver name per conv layer of the compiled range, in
     *  layer order ("layer_idx:solver_name"). */
    const std::vector<std::string> &solvers() const { return solverNames; }

    /** Human-readable reason for the last non-Ok check()/compile()
     *  ("" after a success). */
    const std::string &diagnostic() const { return diag; }

  private:
    CompileStatus fail(CompileStatus s, const std::string &why) const;

    const Network *net;
    const NetworkWeights *weights;
    std::vector<int> opList;

    PlanCompileOptions opt_;
    bool isCompiled = false;
    double compileSecs = 0.0;
    std::vector<std::string> solverNames;
    mutable std::string diag;

    // Live after compiling onto a fused engine (Reference pins no
    // executor — runRange holds no state).
    std::unique_ptr<FusedExecutor> fused;
};

} // namespace flcnn

#endif // FLCNN_FUSION_FUSION_PLAN_HH
