#include "fusion/fusion_plan.hh"

#include "common/clock.hh"
#include "common/logging.hh"
#include "fusion/fused_executor.hh"
#include "fusion/plan.hh"
#include "nn/autotune_net.hh"
#include "nn/reference.hh"
#include "obs/metrics.hh"
#include "tune/autotune.hh"
#include "tune/solver.hh"

namespace flcnn {

const char *
planEngineName(PlanEngine e)
{
    switch (e) {
      case PlanEngine::Reference:  return "reference";
      case PlanEngine::Fused:      return "fused";
      case PlanEngine::LineBuffer: return "linebuffer";
      case PlanEngine::Recompute:  return "recompute";
    }
    return "?";
}

PlanEngine
planEngineFromName(const std::string &name)
{
    for (PlanEngine e : {PlanEngine::Reference, PlanEngine::Fused,
                         PlanEngine::LineBuffer, PlanEngine::Recompute}) {
        if (name == planEngineName(e))
            return e;
    }
    fatal("unknown engine '%s' (want reference | fused | linebuffer | "
          "recompute)",
          name.c_str());
}

const char *
compileStatusName(CompileStatus s)
{
    switch (s) {
      case CompileStatus::Ok:                  return "ok";
      case CompileStatus::EmptyPlan:           return "empty_plan";
      case CompileStatus::InvalidOp:           return "invalid_op";
      case CompileStatus::DuplicateOp:         return "duplicate_op";
      case CompileStatus::NonContiguousOp:     return "non_contiguous_op";
      case CompileStatus::MultiInputOp:        return "multi_input_op";
      case CompileStatus::UnsupportedOp:       return "unsupported_op";
      case CompileStatus::UnsupportedSequence: return "unsupported_sequence";
      case CompileStatus::AlreadyCompiled:     return "already_compiled";
    }
    return "?";
}

FusionPlan::FusionPlan(const Network &network, const NetworkWeights &w)
    : net(&network), weights(&w)
{
}

FusionPlan::~FusionPlan() = default;

FusionPlan::FusionPlan(const FusionPlan &other)
    : net(other.net), weights(other.weights), opList(other.opList)
{
}

FusionPlan &
FusionPlan::operator=(const FusionPlan &other)
{
    if (this == &other)
        return *this;
    net = other.net;
    weights = other.weights;
    opList = other.opList;
    opt_ = PlanCompileOptions{};
    isCompiled = false;
    compileSecs = 0.0;
    solverNames.clear();
    diag.clear();
    fused.reset();
    return *this;
}

void
FusionPlan::addOp(int layer_idx)
{
    FLCNN_ASSERT(!isCompiled, "addOp() on a compiled plan");
    opList.push_back(layer_idx);
}

void
FusionPlan::addRange(int first_layer, int last_layer)
{
    FLCNN_ASSERT(first_layer <= last_layer, "addRange order");
    for (int i = first_layer; i <= last_layer; i++)
        addOp(i);
}

CompileStatus
FusionPlan::fail(CompileStatus s, const std::string &why) const
{
    diag = std::string(compileStatusName(s)) + ": " + why;
    return s;
}

CompileStatus
FusionPlan::check(const PlanCompileOptions &opt) const
{
    if (opList.empty())
        return fail(CompileStatus::EmptyPlan, "no ops were added");
    for (size_t i = 0; i < opList.size(); i++) {
        if (opList[i] < 0 || opList[i] >= net->numLayers()) {
            return fail(CompileStatus::InvalidOp,
                        "op #" + std::to_string(i) + " names layer " +
                            std::to_string(opList[i]) + " of a " +
                            std::to_string(net->numLayers()) +
                            "-layer network");
        }
        for (size_t j = 0; j < i; j++) {
            if (opList[j] == opList[i]) {
                return fail(CompileStatus::DuplicateOp,
                            "layer " + std::to_string(opList[i]) +
                                " ('" +
                                net->layer(opList[i]).name +
                                "') was added twice");
            }
        }
    }
    for (size_t i = 1; i < opList.size(); i++) {
        if (opList[i] != opList[i - 1] + 1) {
            return fail(CompileStatus::NonContiguousOp,
                        "op #" + std::to_string(i) + " (layer " +
                            std::to_string(opList[i]) +
                            ") does not follow layer " +
                            std::to_string(opList[i - 1]) +
                            " — plans cover consecutive layers");
        }
    }
    const int first = opList.front();
    const int last = opList.back();
    for (int i = first; i <= last; i++) {
        if (net->layer(i).multiInput()) {
            return fail(CompileStatus::MultiInputOp,
                        "layer " + std::to_string(i) + " ('" +
                            net->layer(i).name + "') is a " +
                            layerKindName(net->layer(i).kind) +
                            " join; no engine fuses multi-input ops "
                            "yet (ROADMAP item 4)");
        }
    }
    if (!net->isPathRange(first, last)) {
        return fail(CompileStatus::UnsupportedSequence,
                    "layers [" + std::to_string(first) + ", " +
                        std::to_string(last) +
                        "] are not a path: an interior output escapes "
                        "to a branch outside the range, so the "
                        "intermediate cannot stay unmaterialized");
    }
    if (opt.engine != PlanEngine::Reference) {
        for (int i = first; i <= last; i++) {
            if (!net->layer(i).fusable()) {
                return fail(
                    CompileStatus::UnsupportedOp,
                    "layer " + std::to_string(i) + " ('" +
                        net->layer(i).name + "') is a " +
                        layerKindName(net->layer(i).kind) +
                        ", which the " +
                        planEngineName(opt.engine) +
                        " engine cannot fuse (see the supported-"
                        "fusions table)");
            }
        }
    }
    if (opt.tip <= 0) {
        return fail(CompileStatus::UnsupportedSequence,
                    "tip tile must be positive (got " +
                        std::to_string(opt.tip) + ")");
    }
    return CompileStatus::Ok;
}

CompileStatus
FusionPlan::compile(const PlanCompileOptions &opt)
{
    if (opt.metrics) {
        opt.metrics->addCounter("plan", "compiles", 1);
        // Declare the contract counter so a zero is visible (and
        // assertable by CI) even when nothing ever trips it.
        opt.metrics->addCounter("plan", "silent_fallbacks", 0);
    }
    if (isCompiled) {
        CompileStatus s = fail(CompileStatus::AlreadyCompiled,
                               "plan is already pinned to the " +
                                   std::string(planEngineName(
                                       opt_.engine)) +
                                   " engine");
        if (opt.metrics)
            opt.metrics->addCounter("plan", "compile_rejected", 1);
        return s;
    }
    CompileStatus s = check(opt);
    if (s != CompileStatus::Ok) {
        if (opt.metrics)
            opt.metrics->addCounter("plan", "compile_rejected", 1);
        return s;
    }

    const double t0 = monotonicSeconds();
    const int first = opList.front();
    const int last = opList.back();
    const Precision mode =
        opt.precision ? opt.precision->mode() : Precision::Fp32;
    // The fast-math tier applies to fp32 on fused engines only; the
    // Reference engine is the golden baseline and stays exact.
    const bool fm = opt.fastMath && mode == Precision::Fp32 &&
                    opt.engine != PlanEngine::Reference;

    if (opt.tuneFirst)
        autotuneQueries(convQueriesForRange(*net, first, last, mode, fm));

    solverNames.clear();
    for (int i = first; i <= last; i++) {
        if (net->layer(i).kind != LayerKind::Conv)
            continue;
        ConvPlan cp = planConv(convLayerQuery(*net, i, mode, fm));
        solverNames.push_back(std::to_string(i) + ":" + cp.solver);
    }

    // Every fused engine is FusedExecutor over its own tile plan:
    // Fused retains the overlap between tip x tip pyramids, Recompute
    // recomputes it (Section III-C), and LineBuffer retains it across
    // one column of pyramids tip rows tall and as wide as the output.
    if (opt.engine != PlanEngine::Reference) {
        const bool line = opt.engine == PlanEngine::LineBuffer;
        fused = std::make_unique<FusedExecutor>(
            *net, *weights,
            TilePlan(*net, first, last, opt.tip,
                     line ? net->outShape(last).w : opt.tip,
                     /*retain=*/opt.engine != PlanEngine::Recompute));
        fused->setPrecision(opt.precision);
        fused->setFastMath(opt.fastMath);
    }

    opt_ = opt;
    isCompiled = true;
    diag.clear();

    if (opt.prepackWeights && opt.engine != PlanEngine::Reference) {
        // One zero-image run populates the executor's weight-pack
        // cache (and touches every buffer), so the first real
        // execute() pays no packing cost.
        Tensor zero(net->inShape(first));
        (void)execute(zero);
    }

    compileSecs = monotonicSeconds() - t0;
    if (opt.metrics) {
        opt.metrics->addCounter("plan", "compile_ok", 1);
        if (opt.engine == PlanEngine::Reference)
            opt.metrics->addCounter("plan", "reference_compiles", 1);
        opt.metrics->addGauge("plan", "compile_seconds", compileSecs);
    }
    return CompileStatus::Ok;
}

int
FusionPlan::firstLayer() const
{
    FLCNN_ASSERT(!opList.empty(), "plan has no ops");
    return opList.front();
}

int
FusionPlan::lastLayer() const
{
    FLCNN_ASSERT(!opList.empty(), "plan has no ops");
    return opList.back();
}

Shape
FusionPlan::inShape() const
{
    return net->inShape(firstLayer());
}

Shape
FusionPlan::outShape() const
{
    return net->outShape(lastLayer());
}

Tensor
FusionPlan::execute(const Tensor &input)
{
    if (!isCompiled) {
        fatal("FusionPlan::execute() before a successful compile() "
              "(last status: %s)",
              diag.empty() ? "never compiled" : diag.c_str());
    }
    if (opt_.metrics)
        opt_.metrics->addCounter("plan", "executes", 1);
    switch (opt_.engine) {
      case PlanEngine::Reference:
        return runRange(*net, *weights, input, opList.front(),
                        opList.back(), opt_.precision);
      case PlanEngine::Fused:
      case PlanEngine::LineBuffer:
      case PlanEngine::Recompute:
        return fused->run(input);
    }
    panic("unreachable plan engine");
}

void
FusionPlan::executeInto(const Tensor &input, Tensor *out)
{
    if (!isCompiled) {
        fatal("FusionPlan::executeInto() before a successful compile() "
              "(last status: %s)",
              diag.empty() ? "never compiled" : diag.c_str());
    }
    if (opt_.metrics)
        opt_.metrics->addCounter("plan", "executes", 1);
    switch (opt_.engine) {
      case PlanEngine::Fused:
      case PlanEngine::LineBuffer:
      case PlanEngine::Recompute:
        fused->runInto(input, out);
        return;
      case PlanEngine::Reference:
        break;
    }
    panic("executeInto() on a plan without in-place output support");
}

bool
FusionPlan::producesInto() const
{
    return isCompiled && opt_.engine != PlanEngine::Reference;
}

} // namespace flcnn
