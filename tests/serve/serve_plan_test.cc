/**
 * @file
 * Compile-once / execute-many serving through fusion plans.
 *
 * Two layers of contract:
 *
 *  - ServeEngine semantics: warmup() compiles the worker's private
 *    plan copy exactly once; the steady-state request loop only
 *    executes (lazyCompiles() == 0). Skipping warmup compiles lazily,
 *    once, and is counted. addModel() validates the plan template
 *    against the supported-fusions table and rejects unsupported
 *    combinations with a fatal typed status — never a silent engine
 *    swap.
 *  - The differential grid: outputs served through compiled plans are
 *    bit-exact against nn::runRange on the AlexNet prefix and the VGG-E
 *    first five convs, at every engine kind, workers {1, 2, 8} x
 *    precisions {fp32, int8, fp16} (SIMD on/off comes from CI building
 *    the suite both ways). This is the pre-refactor serving contract,
 *    re-proven through the plan path.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "nn/precision.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "obs/metrics.hh"
#include "serve/server.hh"
#include "tensor/compare.hh"

namespace flcnn {
namespace {

Network
alexPrefixScaled(int hw)
{
    Network net("alex-prefix", Shape{3, hw, hw});
    net.add(LayerSpec::conv("conv1", 96, 11, 4));
    net.add(LayerSpec::relu("relu1"));
    net.addMaxPool("pool1", 3, 2);
    net.add(LayerSpec::padding("conv2_pad", 2));
    net.add(LayerSpec::conv("conv2", 256, 5, 1, 2));
    net.add(LayerSpec::relu("relu2"));
    return net;
}

Network
vggFiveScaled(int hw)
{
    Network net("vggE-first5", Shape{3, hw, hw});
    net.addConvBlock("conv1_1", 64, 3, 1, 1);
    net.addConvBlock("conv1_2", 64, 3, 1, 1);
    net.addMaxPool("pool1", 2, 2);
    net.addConvBlock("conv2_1", 128, 3, 1, 1);
    net.addConvBlock("conv2_2", 128, 3, 1, 1);
    net.addMaxPool("pool2", 2, 2);
    net.addConvBlock("conv3_1", 256, 3, 1, 1);
    return net;
}

/**
 * Serve @p requests images through warmed-up plan engines and assert
 * every output is bit-exact against runRange at the same precision.
 */
void
runPlanDifferential(const Network &net, Precision mode, int workers,
                    PlanEngine engine, int requests = 8)
{
    SCOPED_TRACE(std::string(net.name()) + " " + precisionName(mode) +
                 " workers=" + std::to_string(workers) + " engine=" +
                 planEngineName(engine));

    Rng wrng(7);
    NetworkWeights weights(net, wrng);
    NetPrecision prec;
    const NetPrecision *pp = nullptr;
    if (mode != Precision::Fp32) {
        prec = NetPrecision::calibrate(net, weights, mode);
        pp = &prec;
    }

    constexpr int kPool = 4;
    std::vector<Tensor> inputs;
    std::vector<Tensor> expected;
    Rng irng(11);
    const int last = net.numLayers() - 1;
    for (int i = 0; i < kPool; i++) {
        inputs.emplace_back(net.inputShape());
        inputs.back().fillRandom(irng);
        expected.push_back(
            runRange(net, weights, inputs.back(), 0, last, pp));
    }

    ServeConfig cfg;
    cfg.workers = workers;
    cfg.queueCapacity = 64;
    cfg.policy = OverflowPolicy::Block;
    cfg.batch.maxBatch = 3;
    cfg.engine = engine;
    cfg.warmup = true;  // compile-once path: workers pre-pin plans

    InferenceServer server(cfg);
    server.addModel(net.name(), net, weights, 0, -1, pp);
    server.start();

    std::vector<RequestHandlePtr> handles;
    for (int i = 0; i < requests; i++)
        handles.push_back(
            server.submit(0, Tensor(inputs[i % kPool])).handle);
    for (int i = 0; i < requests; i++) {
        ASSERT_EQ(handles[i]->wait(), RequestStatus::Ok);
        EXPECT_TRUE(tensorsEqual(expected[i % kPool],
                                 handles[i]->output()))
            << "request " << i << " diverged from runRange";
    }
    server.drainAndStop();
}

TEST(ServePlan, WarmupCompilesOnceWorkersOnlyExecute)
{
    Network net = alexPrefixScaled(67);
    Rng rng(3);
    NetworkWeights w(net, rng);
    ModelSpec spec;
    spec.name = "alex";
    spec.net = &net;
    spec.weights = &w;
    spec.firstLayer = 0;
    spec.lastLayer = net.numLayers() - 1;

    ServeEngine eng(spec, PlanEngine::LineBuffer);
    EXPECT_FALSE(eng.plan().compiled());
    eng.warmup();
    EXPECT_TRUE(eng.plan().compiled());
    eng.warmup();  // idempotent

    Tensor in(net.inputShape());
    Rng irng(4);
    in.fillRandom(irng);
    Tensor golden = runRange(net, w, in, 0, spec.lastLayer);
    for (int i = 0; i < 4; i++)
        EXPECT_TRUE(tensorsEqual(golden, eng.run(in)));
    // The steady-state loop never compiled: warmup did, exactly once.
    EXPECT_EQ(eng.lazyCompiles(), 0);
    EXPECT_GT(eng.plan().compileSeconds(), 0.0);
}

TEST(ServePlan, SkippedWarmupCompilesLazilyExactlyOnce)
{
    Network net = alexPrefixScaled(67);
    Rng rng(5);
    NetworkWeights w(net, rng);
    ModelSpec spec;
    spec.name = "alex";
    spec.net = &net;
    spec.weights = &w;
    spec.firstLayer = 0;
    spec.lastLayer = net.numLayers() - 1;

    ServeEngine eng(spec, PlanEngine::Fused);
    Tensor in(net.inputShape());
    Rng irng(6);
    in.fillRandom(irng);
    (void)eng.run(in);
    (void)eng.run(in);
    EXPECT_EQ(eng.lazyCompiles(), 1);
}

TEST(ServePlan, EngineUsesTheRegisteredPlanTemplate)
{
    Network net = alexPrefixScaled(67);
    Rng rng(9);
    NetworkWeights w(net, rng);
    // Template over a sub-range: the engine must serve exactly the
    // template's ops, not re-derive its own.
    auto tmpl = std::make_shared<FusionPlan>(net, w);
    tmpl->addRange(1, 3);
    ModelSpec spec;
    spec.name = "mid";
    spec.net = &net;
    spec.weights = &w;
    spec.firstLayer = 1;
    spec.lastLayer = 3;
    spec.plan = tmpl;

    ServeEngine eng(spec, PlanEngine::LineBuffer);
    EXPECT_EQ(eng.plan().ops(), tmpl->ops());
    eng.warmup();
    EXPECT_FALSE(tmpl->compiled());  // workers compile private copies

    Tensor in(net.inShape(1));
    Rng irng(10);
    in.fillRandom(irng);
    Tensor golden = runRange(net, w, in, 1, 3);
    EXPECT_TRUE(tensorsEqual(golden, eng.run(in)));
}

TEST(ServePlan, Fp32GridAlexNetPrefix)
{
    Network net = alexPrefixScaled(67);
    for (int workers : {1, 2, 8})
        for (PlanEngine kind :
             {PlanEngine::Reference, PlanEngine::Fused,
              PlanEngine::LineBuffer, PlanEngine::Recompute})
            runPlanDifferential(net, Precision::Fp32, workers, kind);
}

TEST(ServePlan, Fp32GridVggFirstFive)
{
    Network net = vggFiveScaled(40);
    for (int workers : {1, 2, 8})
        for (PlanEngine kind :
             {PlanEngine::Reference, PlanEngine::Fused,
              PlanEngine::LineBuffer, PlanEngine::Recompute})
            runPlanDifferential(net, Precision::Fp32, workers, kind);
}

TEST(ServePlan, PrecisionGridAlexNetPrefix)
{
    Network net = alexPrefixScaled(67);
    for (Precision mode : {Precision::Int8, Precision::Fp16})
        for (int workers : {1, 2, 8})
            for (PlanEngine kind :
                 {PlanEngine::Reference, PlanEngine::Fused,
                  PlanEngine::LineBuffer, PlanEngine::Recompute})
                runPlanDifferential(net, mode, workers, kind, 6);
}

TEST(ServePlan, PrecisionGridVggFirstFive)
{
    Network net = vggFiveScaled(40);
    for (Precision mode : {Precision::Int8, Precision::Fp16})
        for (int workers : {1, 2, 8})
            for (PlanEngine kind :
                 {PlanEngine::Reference, PlanEngine::Fused,
                  PlanEngine::LineBuffer, PlanEngine::Recompute})
                runPlanDifferential(net, mode, workers, kind, 6);
}

TEST(ServePlanDeath, AddModelRejectsUnsupportedPlanTyped)
{
    // A network whose tail is a fully-connected head cannot compile
    // onto a fused engine: registration dies with the typed status in
    // the message instead of silently serving the reference path.
    // The global thread pool is already running when this test runs in
    // a whole-binary process; re-exec the death child instead of a
    // plain fork that would leave it without its workers.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Network net("conv-fc", Shape{2, 6, 6});
    net.add(LayerSpec::conv("c", 4, 3, 1));
    net.add(LayerSpec::relu("r"));
    net.add(LayerSpec::fullyConnected("fc", 10));
    Rng rng(13);
    NetworkWeights w(net, rng);

    ServeConfig cfg;
    cfg.engine = PlanEngine::LineBuffer;
    auto reject = [&] {
        InferenceServer server(cfg);
        server.addModel("m", net, w);
    };
    EXPECT_EXIT(reject(), ::testing::ExitedWithCode(1),
                "unsupported_op");

    // The same model is a legal explicit choice on the reference
    // engine.
    ServeConfig ok = cfg;
    ok.engine = PlanEngine::Reference;
    ok.warmup = false;
    InferenceServer server(ok);
    server.addModel("m", net, w);
    server.start();
    Tensor in(net.inputShape());
    Rng irng(14);
    in.fillRandom(irng);
    Tensor golden = runRange(net, w, in, 0, net.numLayers() - 1);
    auto h = server.submit(0, Tensor(in)).handle;
    ASSERT_EQ(h->wait(), RequestStatus::Ok);
    EXPECT_TRUE(tensorsEqual(golden, h->output()));
    server.drainAndStop();
}

TEST(ServeAdmission, WrongShapeIsInvalidAndServingContinues)
{
    // A request whose input is not the model's input shape completes
    // as Invalid at admission; the server keeps serving and the
    // admission ledger still balances.
    Network net("conv-pool", Shape{3, 20, 20});
    net.add(LayerSpec::conv("c", 4, 3, 1));
    net.add(LayerSpec::relu("r"));
    net.addMaxPool("p", 2, 2);
    Rng rng(21);
    NetworkWeights w(net, rng);
    Tensor good(net.inputShape());
    Rng irng(22);
    good.fillRandom(irng);
    const Tensor golden = runRange(net, w, good, 0, net.numLayers() - 1);

    for (PlanEngine kind : {PlanEngine::LineBuffer, PlanEngine::Reference}) {
        SCOPED_TRACE(planEngineName(kind));
        ServeConfig cfg;
        cfg.engine = kind;
        InferenceServer server(cfg);
        server.addModel("m", net, w);
        server.start();

        // Bad requests: a wrong shape, an unknown model id by value,
        // and an unknown model id through the zero-copy slot path.
        // Each is Invalid and the next valid request is served.
        std::vector<SubmitResult> bad;
        bad.push_back(server.submit(0, Tensor(Shape{3, 21, 20})));
        bad.push_back(server.submit(7, Tensor(good)));
        bad.push_back(server.submit(server.acquireInput(7)));
        for (size_t i = 0; i < bad.size(); i++) {
            SCOPED_TRACE("bad request " + std::to_string(i));
            EXPECT_EQ(bad[i].admit, AdmitResult::Invalid);
            ASSERT_EQ(bad[i].handle->wait(), RequestStatus::Invalid);

            SubmitResult ok = server.submit(0, Tensor(good));
            EXPECT_EQ(ok.admit, AdmitResult::Admitted);
            ASSERT_EQ(ok.handle->wait(), RequestStatus::Ok);
            EXPECT_TRUE(tensorsEqual(golden, ok.handle->output()));
        }
        server.drainAndStop();

        const ServerStats &st = server.stats();
        EXPECT_EQ(st.submitted(), 6);
        EXPECT_EQ(st.invalid(), 3);
        EXPECT_EQ(st.completed(), 3);
        EXPECT_EQ(st.submitted(), st.admitted() + st.rejected() +
                                      st.cancelled() + st.shed() +
                                      st.invalid());
        MetricsRegistry reg;
        server.registerMetrics(reg);
        EXPECT_EQ(reg.counter("serve:queue", "invalid"), 3);
    }
}

} // namespace
} // namespace flcnn
