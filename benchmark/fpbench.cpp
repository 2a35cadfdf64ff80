/**
 * @file
 * fpbench — the benchmark's harness binary. run.py builds and drives
 * it; every mode prints exactly one JSON object on stdout.
 *
 *   fpbench host
 *   fpbench suite --threads=N [--trace-out=FILE] [--setup-only]
 *   fpbench fig17 --threads=N [--modes] [--trace-out=FILE]
 *   fpbench train --epochs=E --millis=T [--setup-only]
 *   fpbench serve-load --socket=PATH --seed=S --millis=T
 *                 [--trace-out=FILE]
 *   fpbench probes --seed=S --millis=T
 *
 * It times calls into the public API only (produceResult, MlpTrainer,
 * MacEngine, Tile, TensorGenerator, ServeClient); with --trace-out it
 * also enables the obs span collector and wraps each of those calls in
 * a "bench" span. `first_call_ns` is the monotonic clock reading just
 * before the first timed call, so run.py can measure set-up from
 * its own spawn time on the same clock.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "api/driver.h"
#include "api/registry.h"
#include "api/result.h"
#include "common/clock.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "common/table.h"
#include "numeric/slab_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/job_spec.h"
#include "sim/sim_engine.h"
#include "tile/tile.h"
#include "trace/tensor_gen.h"
#include "train/mac_modes.h"
#include "train/trainer.h"
#include "workload/catalog.h"
#include "workload/lowering.h"
#include "workload/supply.h"

#include "closed_loop.h"
#include "reference.h"

namespace fpbench {
namespace {

using namespace fpraker;
using api::CliOptions;
using api::ExperimentInfo;
using api::ExperimentRegistry;
using api::ReportWriter;
using api::Result;

// ------------------------------------------------------------ plumbing

/** --key=value / --flag arguments after the mode word. */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 2; i < argc; ++i) {
            std::string a = argv[i];
            if (a.rfind("--", 0) != 0)
                die("unexpected argument '" + a + "'");
            const size_t eq = a.find('=');
            if (eq == std::string::npos)
                kv_[a.substr(2)] = "";
            else
                kv_[a.substr(2, eq - 2)] = a.substr(eq + 1);
        }
    }

    bool has(const std::string &k) const { return kv_.count(k) != 0; }

    std::string
    str(const std::string &k, const std::string &fallback = "") const
    {
        auto it = kv_.find(k);
        return it == kv_.end() ? fallback : it->second;
    }

    long long
    num(const std::string &k, long long fallback) const
    {
        auto it = kv_.find(k);
        if (it == kv_.end())
            return fallback;
        char *end = nullptr;
        const long long v = std::strtoll(it->second.c_str(), &end, 10);
        if (it->second.empty() || *end)
            die("--" + k + " needs an integer");
        return v;
    }

    [[noreturn]] static void
    die(const std::string &why)
    {
        std::fprintf(stderr, "fpbench: %s\n", why.c_str());
        std::exit(2);
    }

  private:
    std::map<std::string, std::string> kv_;
};

void
emit(const api::JsonValue &v)
{
    std::string s = v.dumpCompact();
    s += '\n';
    std::fwrite(s.data(), 1, s.size(), stdout);
    std::fflush(stdout);
}

/** Start span collection when @p path is set; returns whether it did. */
bool
maybeTrace(const std::string &path)
{
    if (path.empty())
        return false;
    obs::TraceCollector::instance().enable();
    return true;
}

void
writeTrace(const std::string &path)
{
    if (!path.empty() && !obs::TraceCollector::instance().writeTo(path))
        Args::die("cannot write trace to " + path);
}

const ExperimentInfo &
experiment(const std::string &id)
{
    const ExperimentInfo *info = ExperimentRegistry::instance().find(id);
    if (!info)
        Args::die("experiment '" + id + "' is not registered");
    return *info;
}

/** One experiment call: produceResult, then text + JSON rendering. */
struct Call
{
    std::string id;
    std::string fingerprint;
    bool ok = false;
    int64_t produceNs = 0;
    int64_t renderNs = 0;

    api::JsonValue
    json() const
    {
        api::JsonValue v = api::JsonValue::object();
        v.set("id", id);
        v.set("fingerprint", fingerprint);
        v.set("ok", ok);
        v.set("produce_ns", produceNs);
        v.set("render_ns", renderNs);
        return v;
    }
};

Call
callExperiment(const ExperimentInfo &info, const CliOptions &opts,
               SimEngine *engine, Result *keep = nullptr)
{
    Call c;
    c.id = info.id;
    const int64_t t0 = now_ns();
    Result r = [&] {
        obs::TraceSpan span("bench", "produce:" + info.id);
        return produceResult(info, opts, engine);
    }();
    const int64_t t1 = now_ns();
    {
        obs::TraceSpan span("bench", "render:" + info.id);
        (void)ReportWriter::renderText(r);
        (void)ReportWriter::renderJson(r);
    }
    c.renderNs = now_ns() - t1;
    c.produceNs = t1 - t0;
    c.fingerprint = Fnv64::hex(r.fingerprint());
    c.ok = r.ok;
    if (keep)
        *keep = std::move(r);
    return c;
}

api::JsonValue
nsArray(const std::vector<int64_t> &ns)
{
    api::JsonValue a = api::JsonValue::array();
    for (int64_t v : ns)
        a.push(v);
    return a;
}

// ------------------------------------------------------------- host

int
hostMain()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    int affinity = 0;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        affinity = CPU_COUNT(&set);
    api::JsonValue v = api::JsonValue::object();
    v.set("nproc", affinity > 0
                       ? affinity
                       : static_cast<int>(
                             std::thread::hardware_concurrency()));
    v.set("simd_level", slab::simdLevel());
    v.set("build_type", FPBENCH_BUILD_TYPE);
    v.set("lto", FPBENCH_LTO);
    v.set("compiler", FPBENCH_COMPILER);
    emit(v);
    return 0;
}

// ------------------------------------------------------- figure suite

/** The accelerator-model experiments of the figure suite. */
bool
inSuite(const std::string &id)
{
    static const char *const kIds[] = {
        "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig18",
        "fig19", "fig20", "fig21", "ablation_buffer", "ablation_encoding",
        "ablation_exponent", "ablation_window", "intro", "ext_batch_sweep",
        "ext_conv_im2col", "ext_inference", "ext_progressive",
        "ext_workload_catalog",
    };
    for (const char *k : kIds)
        if (id == k)
            return true;
    return false;
}

int
suiteMain(const Args &args)
{
    const int threads = static_cast<int>(args.num("threads", 1));
    const std::string traceOut = args.str("trace-out");
    const bool traced = maybeTrace(traceOut);

    std::vector<const ExperimentInfo *> infos;
    for (const ExperimentInfo *info : ExperimentRegistry::instance().all())
        if (inSuite(info->id))
            infos.push_back(info);
    SimEngine engine(threads);
    CliOptions opts;
    opts.threads = threads;

    api::JsonValue out = api::JsonValue::object();
    const int64_t firstCall = now_ns();
    out.set("first_call_ns", firstCall);
    if (args.has("setup-only")) {
        emit(out);
        return 0;
    }

    const int64_t refBefore = referenceNs(threads);
    const int64_t t0 = now_ns();
    std::vector<Call> cold;
    for (const ExperimentInfo *info : infos)
        cold.push_back(callExperiment(*info, opts, &engine));
    const int64_t suiteNs = now_ns() - t0;
    const int64_t refAfter = referenceNs(threads);

    api::JsonValue exps = api::JsonValue::array();
    for (const Call &c : cold)
        exps.push(c.json());
    out.set("suite_ns", suiteNs);
    out.set("experiments", std::move(exps));
    out.set("ref_ns", nsArray({refBefore, refAfter}));
    if (traced) {
        out.set("registry", obs::Registry::instance().snapshotJson());
        writeTrace(traceOut);
    }
    emit(out);
    return 0;
}

// -------------------------------------------------------------- fig17

/** fig17's training set-up (src/api/experiments/fig17_accuracy.cpp). */
DatasetConfig
fig17Dataset()
{
    DatasetConfig d;
    d.classes = 10;
    d.imageSize = 10;
    d.trainSamples = 960;
    d.testSamples = 320;
    d.noise = 1.8;
    return d;
}

TrainConfig
fig17Training()
{
    TrainConfig t;
    t.hidden = {32};
    t.epochs = 8;
    t.batchSize = 32;
    t.learningRate = 0.03f;
    return t;
}

/**
 * Seeded dot-product operands at the trainer's dot lengths: ReLU-like
 * activations against small Gaussian weights. Lengths cycle through
 * the forward (features, hidden), input-gradient (classes, hidden) and
 * weight-gradient (batch) dots of the fig17 MLP.
 */
struct DotOperands
{
    std::vector<size_t> lengths;
    std::vector<std::vector<float>> a, b;

    DotOperands(size_t features, uint64_t seed, size_t count)
    {
        const TrainConfig t = fig17Training();
        const size_t hidden = t.hidden[0];
        const size_t base[] = {features, hidden,
                               static_cast<size_t>(fig17Dataset().classes),
                               hidden, static_cast<size_t>(t.batchSize)};
        Rng rng(seed);
        for (size_t i = 0; i < count; ++i) {
            const size_t n = base[i % 5];
            lengths.push_back(n);
            std::vector<float> x(n), w(n);
            for (size_t k = 0; k < n; ++k) {
                x[k] = static_cast<float>(std::max(0.0, rng.gaussian()));
                w[k] = static_cast<float>(rng.gaussian(0.0, 0.1));
            }
            a.push_back(std::move(x));
            b.push_back(std::move(w));
        }
    }
};

int
fig17Main(const Args &args)
{
    const int threads = static_cast<int>(args.num("threads", 1));
    const std::string traceOut = args.str("trace-out");
    const bool traced = maybeTrace(traceOut);

    const ExperimentInfo &info = experiment("fig17");
    SimEngine engine(threads);
    CliOptions opts;
    opts.threads = threads;

    api::JsonValue out = api::JsonValue::object();
    Result fig17;
    const Call cold = callExperiment(info, opts, &engine, &fig17);
    out.set("experiment", cold.json());

    // Each training mode on its own, serially, checked against the
    // accuracy column fig17 reported for it.
    if (args.has("modes")) {
        const DatasetPair data = makeSynthCifar(fig17Dataset());
        const MacMode modes[] = {MacMode::FPRakerEmulated,
                                 MacMode::Bf16Chunked,
                                 MacMode::NativeFp32};
        api::JsonValue m = api::JsonValue::object();
        for (MacMode mode : modes) {
            MlpTrainer trainer(data, fig17Training());
            const int64_t t0 = now_ns();
            TrainResult res;
            {
                obs::TraceSpan span("bench", std::string("train:") +
                                                 macModeLabel(mode));
                res = trainer.run(mode);
            }
            api::JsonValue e = api::JsonValue::object();
            e.set("ns", now_ns() - t0);
            e.set("final_accuracy", Table::pct(res.finalAccuracy()));
            m.set(macModeLabel(mode), std::move(e));
        }
        out.set("modes", std::move(m));
        // The accuracy table's last row, to compare against.
        const std::vector<std::string> &headers =
            fig17.tables()[0].headers;
        const std::vector<std::string> &last =
            fig17.tables()[0].rows.back();
        api::JsonValue fin = api::JsonValue::object();
        for (size_t i = 1; i < headers.size(); ++i)
            fin.set(headers[i], last[i]);
        out.set("fig17_final", std::move(fin));
    }
    if (traced) {
        out.set("registry", obs::Registry::instance().snapshotJson());
        writeTrace(traceOut);
    }
    emit(out);
    return 0;
}

/** Digest of one training trajectory: every epoch's accuracy and loss. */
std::string
trainFingerprint(const TrainResult &r)
{
    Fnv64 h;
    h.addBytes(r.testAccuracy.data(),
               r.testAccuracy.size() * sizeof(double));
    h.addBytes(r.trainLoss.data(), r.trainLoss.size() * sizeof(float));
    return Fnv64::hex(h.value());
}

/**
 * fig17's training set-up for --epochs, each MAC mode's MlpTrainer::run
 * timed on its own, on this thread, repeated for --millis (at least
 * twice), each run between two one-thread references. Every repeat must
 * reproduce the first one's trajectory.
 */
int
trainMain(const Args &args)
{
    TrainConfig cfg = fig17Training();
    cfg.epochs = static_cast<int>(args.num("epochs", 1));
    const int64_t millis = args.num("millis", 1000);
    const MacMode modes[] = {MacMode::FPRakerEmulated, MacMode::Bf16Chunked,
                             MacMode::NativeFp32};

    api::JsonValue out = api::JsonValue::object();
    const int64_t firstCall = now_ns();
    out.set("first_call_ns", firstCall);
    if (args.has("setup-only")) {
        emit(out);
        return 0;
    }
    // fig17 builds its dataset inside produceResult, so it is work here
    // too, not set-up; it is built once and not timed.
    const DatasetPair data = makeSynthCifar(fig17Dataset());

    std::map<std::string, std::vector<int64_t>> ns;
    std::map<std::string, std::string> fingerprints;
    bool consistent = true;
    // Stop before a repeat that would end past --millis.
    const int64_t end = firstCall + millis * 1000000;
    int64_t repNs = 0;
    // Each run's reference: the mean of the ones just before and after.
    std::map<std::string, std::vector<int64_t>> refNs;
    int64_t lastRef = referenceNs(1);
    for (int rep = 0; rep < 2 || now_ns() + repNs <= end; ++rep) {
        const int64_t rep0 = now_ns();
        for (MacMode mode : modes) {
            MlpTrainer trainer(data, cfg);
            const int64_t t0 = now_ns();
            const TrainResult res = trainer.run(mode);
            ns[macModeLabel(mode)].push_back(now_ns() - t0);
            const int64_t ref = referenceNs(1);
            refNs[macModeLabel(mode)].push_back((lastRef + ref) / 2);
            lastRef = ref;
            const std::string fp = trainFingerprint(res);
            auto [it, fresh] = fingerprints.emplace(macModeLabel(mode), fp);
            consistent = consistent && (fresh || it->second == fp);
        }
        repNs = now_ns() - rep0;
    }

    api::JsonValue samples = api::JsonValue::object();
    api::JsonValue refs = api::JsonValue::object();
    api::JsonValue fps = api::JsonValue::object();
    for (const auto &[label, v] : ns) {
        samples.set(label, nsArray(v));
        refs.set(label, nsArray(refNs[label]));
        fps.set(label, fingerprints[label]);
    }
    out.set("samples_ns", std::move(samples));
    out.set("ref_ns", std::move(refs));
    out.set("fingerprints", std::move(fps));
    out.set("consistent", consistent);
    emit(out);
    return 0;
}

// -------------------------------------------------------- serve load

serve::JobSpec
spec(const char *id, int sampleSteps)
{
    serve::JobSpec s;
    s.experiment = id;
    s.sampleSteps = sampleSteps;
    return s;
}

std::string
specLabel(const serve::JobSpec &s)
{
    return s.experiment + "@" + std::to_string(s.sampleSteps);
}

api::JsonValue
submitMessage(const serve::JobSpec &s)
{
    api::JsonValue m = api::JsonValue::object();
    m.set("op", "submit");
    m.set("spec", s.toJson());
    m.set("wait", true);
    return m;
}

/** The direct (in-process) fingerprint of @p s. */
std::string
directFingerprint(const serve::JobSpec &s, SimEngine *engine)
{
    CliOptions opts;
    opts.sampleSteps = s.sampleSteps;
    Result r = produceResult(experiment(s.experiment), opts, engine);
    return r.ok ? Fnv64::hex(r.fingerprint()) : std::string("failed");
}

/** A connection that redials after a transport failure. */
class Connection
{
  public:
    explicit Connection(std::string socket) : socket_(std::move(socket)) {}

    bool
    request(const api::JsonValue &msg, api::JsonValue *reply)
    {
        std::string error;
        if (!client_) {
            client_ = std::make_unique<serve::ServeClient>();
            if (!client_->connectTo(socket_, &error) ||
                !client_->setTimeout(60, &error)) {
                client_.reset();
                return false;
            }
        }
        obs::TraceSpan span("bench", "request");
        if (client_->request(msg, reply, &error))
            return true;
        client_.reset();
        return false;
    }

  private:
    std::string socket_;
    std::unique_ptr<serve::ServeClient> client_;
};

int
serveLoadMain(const Args &args)
{
    const std::string socket = args.str("socket");
    const uint64_t seed = static_cast<uint64_t>(args.num("seed", 1));
    const double seconds =
        static_cast<double>(args.num("millis", 5000)) * 1e-3;
    const std::string traceOut = args.str("trace-out");
    const bool traced = maybeTrace(traceOut);
    if (socket.empty())
        Args::die("serve-load needs --socket");

    // Hot set: small (fig02) and larger (fig11) documents. fig11 runs
    // at reduced sample budgets so pre-warming stays cheap; the
    // document size does not depend on the budget.
    const std::vector<serve::JobSpec> hot = {
        spec("fig02", 0), spec("fig02", 48), spec("fig11", 24),
        spec("fig11", 32)};
    // Cold specs: fig02 at seeded, never-repeated sample budgets. fig02
    // never reads the budget, so every cold document has the content
    // (and fingerprint) of fig02 at the first cold budget; the first
    // two cold budgets are checked to agree.
    const int coldBase = 1000 + static_cast<int>(seed % 10007) * 50;

    api::JsonValue direct = api::JsonValue::object();
    std::vector<std::string> hotFp;
    std::string coldFp;
    {
        SimEngine engine(2);
        for (const serve::JobSpec &s : hot) {
            hotFp.push_back(directFingerprint(s, &engine));
            direct.set(specLabel(s), hotFp.back());
        }
        coldFp = directFingerprint(spec("fig02", coldBase), &engine);
        const std::string again =
            directFingerprint(spec("fig02", coldBase + 1), &engine);
        direct.set("fig02@cold", coldFp);
        if (again != coldFp)
            coldFp = "budget-dependent";
    }

    // Pre-warm: every hot spec once, so the loop reads the cache.
    int prewarmBad = 0;
    {
        Connection c(socket);
        for (size_t i = 0; i < hot.size(); ++i) {
            api::JsonValue reply;
            Request r{ReqKind::Hot, submitMessage(hot[i]), hotFp[i]};
            if (classify(c.request(r.message, &reply), reply, r) !=
                Outcome::Ok)
                ++prewarmBad;
        }
    }

    // Closed loop: two connections, each its own seeded stream.
    // Every block of 200 requests holds exactly 190 hot submits, 9 cold
    // submits, and 1 metrics poll in seeded order, so each round of the
    // loop carries the same mix instead of a binomial draw of it.
    constexpr int kBlock = 200, kBlockHot = 190, kBlockCold = 9;
    std::atomic<int> coldNext{0};
    constexpr int kConnections = 2;
    std::vector<std::vector<Sample>> perConn(kConnections);
    const int64_t start = now_ns();
    const int64_t deadline =
        start + static_cast<int64_t>(seconds * 1e9);
    std::vector<std::thread> workers;
    for (int ci = 0; ci < kConnections; ++ci)
        workers.emplace_back([&, ci] {
            Connection conn(socket);
            Rng rng(seed * 1000003u + static_cast<uint64_t>(ci));
            std::vector<ReqKind> block;
            auto next = [&]() {
                if (block.empty()) {
                    block.assign(kBlockHot, ReqKind::Hot);
                    block.insert(block.end(), kBlockCold, ReqKind::Cold);
                    block.resize(kBlock, ReqKind::Metrics);
                    for (size_t i = block.size() - 1; i > 0; --i)
                        std::swap(block[i], block[rng.uniformInt(i + 1)]);
                }
                const ReqKind kind = block.back();
                block.pop_back();
                if (kind == ReqKind::Hot) {
                    const size_t h = rng.uniformInt(hot.size());
                    return Request{ReqKind::Hot, submitMessage(hot[h]),
                                   hotFp[h]};
                }
                if (kind == ReqKind::Cold) {
                    const int k = coldNext.fetch_add(1);
                    return Request{ReqKind::Cold,
                                   submitMessage(
                                       spec("fig02", coldBase + 2 + k)),
                                   coldFp};
                }
                api::JsonValue m = api::JsonValue::object();
                m.set("op", "metrics");
                return Request{ReqKind::Metrics, std::move(m), ""};
            };
            runConnection(
                [&](const api::JsonValue &msg, api::JsonValue *reply) {
                    return conn.request(msg, reply);
                },
                next, deadline, &perConn[static_cast<size_t>(ci)]);
        });
    for (std::thread &w : workers)
        w.join();
    const int64_t loopNs = now_ns() - start;

    std::vector<Sample> all;
    for (const auto &v : perConn)
        all.insert(all.end(), v.begin(), v.end());
    std::vector<int64_t> ends;
    for (const Sample &s : all)
        ends.push_back(s.endNs - start);
    std::sort(ends.begin(), ends.end());

    const Tally t = tally(all);
    api::JsonValue tallyJson = api::JsonValue::object();
    tallyJson.set("attempted", t.attempted);
    tallyJson.set("ok", t.ok);
    tallyJson.set("refused", t.refused);
    tallyJson.set("failed", t.failed);
    tallyJson.set("mismatched", t.mismatched);

    api::JsonValue out = api::JsonValue::object();
    out.set("loop_ns", loopNs);
    out.set("direct", std::move(direct));
    out.set("prewarm_bad", prewarmBad);
    out.set("tally", std::move(tallyJson));
    out.set("hot_ns", nsArray(latencies(all, ReqKind::Hot)));
    out.set("cold_ns", nsArray(latencies(all, ReqKind::Cold)));
    out.set("end_ns", nsArray(ends));

    // The daemon's own registry after the load.
    {
        Connection c(socket);
        api::JsonValue m = api::JsonValue::object();
        m.set("op", "metrics");
        api::JsonValue reply;
        if (c.request(m, &reply))
            if (const api::JsonValue *metrics = reply.find("metrics"))
                out.set("daemon_metrics", *metrics);
    }
    if (traced)
        writeTrace(traceOut);
    emit(out);
    return 0;
}

// ------------------------------------------------------------ probes

/** Repeat @p body in chunks for @p seconds; median units per second. */
template <typename Body>
double
rate(double seconds, Body body)
{
    std::vector<double> rates;
    const int64_t end = now_ns() + static_cast<int64_t>(seconds * 1e9);
    do {
        const int64_t t0 = now_ns();
        const double units = body();
        rates.push_back(units / (static_cast<double>(now_ns() - t0) * 1e-9));
    } while (now_ns() < end || rates.size() < 3);
    std::sort(rates.begin(), rates.end());
    return rates[rates.size() / 2];
}

int
probesMain(const Args &args)
{
    const uint64_t seed = static_cast<uint64_t>(args.num("seed", 1));
    const double seconds =
        static_cast<double>(args.num("millis", 1000)) * 1e-3;
    api::JsonValue out = api::JsonValue::object();

    // Tile::run on one AlexNet conv2 forward output window (the plan
    // ext_conv_im2col samples), with seeded operands of its profiles.
    workload::LoweredModel alex(workload::findWorkloadModel("AlexNet"),
                                workload::BatchGeometry{16, 64});
    AcceleratorConfig cfg = AcceleratorConfig::paperDefault();
    cfg.sampleSteps = 48;
    cfg.convWeightBatch = 1;
    size_t unit = alex.units().size();
    for (size_t i = 0; i < alex.units().size(); ++i)
        if (alex.units()[i].layer->name == "conv2" &&
            alex.units()[i].op == TrainingOp::Forward)
            unit = i;
    if (unit == alex.units().size())
        Args::die("AlexNet has no conv2 forward unit");
    const PhasePlan plan = workload::unitPlan(alex, unit, cfg, 0.5);
    const size_t steps = plan.burstSteps(0);
    std::vector<BFloat16> a(steps * plan.aLen), b(steps * plan.bLen);
    TensorGenerator(plan.serialProfile, seed).fill(a.data(), a.size());
    TensorGenerator(plan.parallelProfile, seed ^ 0x5bd1e995u)
        .fill(b.data(), b.size());
    std::vector<TileStepView> views(steps);
    for (size_t s = 0; s < steps; ++s)
        views[s] = TileStepView{a.data() + s * plan.aLen,
                                b.data() + s * plan.bLen};
    Tile tile(cfg.tile);
    uint64_t cycles = 0;
    out.set("tile_sets_per_s", rate(seconds, [&] {
                double sets = 0;
                for (int rep = 0; rep < 20; ++rep) {
                    tile.resetForReuse();
                    cycles += tile.run(views.data(), steps).cycles;
                    sets += static_cast<double>(steps) * cfg.tile.cols;
                }
                return sets;
            }));
    out.set("tile_cycles", cycles > 0);

    // TensorGenerator::fill over the same serial profile.
    TensorGenerator gen(plan.serialProfile, seed + 1);
    std::vector<BFloat16> buf(1 << 16);
    out.set("fill_values_per_s", rate(seconds, [&] {
                gen.fill(buf.data(), buf.size());
                return static_cast<double>(buf.size());
            }));

    // MacEngine::dot at the fig17 trainer's dot lengths.
    const DatasetPair data = makeSynthCifar(fig17Dataset());
    const DotOperands ops(data.train.features(), seed, 500);
    double sink = 0;
    for (MacMode mode : {MacMode::FPRakerEmulated, MacMode::Bf16Chunked}) {
        const MacEngine eng(mode);
        const double dotsPerS = rate(seconds, [&] {
            for (size_t i = 0; i < ops.lengths.size(); ++i)
                sink += eng.dot(ops.a[i].data(), ops.b[i].data(),
                                ops.lengths[i]);
            return static_cast<double>(ops.lengths.size());
        });
        out.set(mode == MacMode::FPRakerEmulated ? "dot_ns_fpraker"
                                                 : "dot_ns_bf16",
                1e9 / dotsPerS);
    }
    out.set("dot_sink", std::isfinite(sink));
    emit(out);
    return 0;
}

} // namespace
} // namespace fpbench

int
main(int argc, char **argv)
{
    using namespace fpbench;
    if (argc < 2)
        Args::die("usage: fpbench host|suite|fig17|train|serve-load|probes "
                  "[--key=value ...]");
    const std::string mode = argv[1];
    const Args args(argc, argv);
    if (mode == "host")
        return hostMain();
    if (mode == "suite")
        return suiteMain(args);
    if (mode == "fig17")
        return fig17Main(args);
    if (mode == "train")
        return trainMain(args);
    if (mode == "serve-load")
        return serveLoadMain(args);
    if (mode == "probes")
        return probesMain(args);
    Args::die("unknown mode '" + mode + "'");
}
