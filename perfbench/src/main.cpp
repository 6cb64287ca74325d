/**
 * @file
 * smoothe_perfbench: the repository benchmark. One command runs one
 * workload (cyclic_scc or anytime_eqsat) generated from a
 * workload seed, measures repeated timed passes for a fixed number of
 * seconds, certifies every extraction outside the timed window, and
 * prints one JSON result line last. `--trace 1` instead reports the
 * per-layer metrics from a separate traced run. See perfbench/README.md.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "layers.hpp"
#include "obs/log.hpp"
#include "support.hpp"
#include "tensor/simd.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

const char* const kUsage =
    "usage: smoothe_perfbench --workload NAME --seed N --seconds S "
    "--trace 0|1\n"
    "                         [--pool P] [--shrink]\n"
    "                         [--commit SHA] [--spans-out FILE]\n"
    "\n"
    "workloads:\n"
    "  cyclic_scc     48 tensat-shaped graphs whose largest SCC has 40-48\n"
    "                 classes\n"
    "  anytime_eqsat  16 seed terms x 8 saturation epochs (node cap 400),\n"
    "                 incremental SmoothE re-extraction\n"
    "\n"
    "flags:\n"
    "  --workload NAME  workload to run (required)\n"
    "  --seed N         workload seed; the inputs are a function of it\n"
    "  --seconds S      measure timed passes for about S seconds\n"
    "  --trace 0|1      0: end-to-end metrics; 1: traced run with\n"
    "                   per-layer metrics\n"
    "  --pool P         thread-pool workers (default 1)\n"
    "  --shrink         small inputs (self-test)\n"
    "  --commit SHA     source revision recorded in the metadata\n"
    "  --spans-out FILE write the traced run's spans as JSON\n"
    "  --help           this text\n";

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::size_t pool = 0; ///< 0 = the workload's own size
    bool shrink = false;
    std::string commit = "unknown";
    std::string spansOut;
};

[[noreturn]] void
usageError(const std::string& message)
{
    std::fprintf(stderr, "smoothe_perfbench: %s\n%s", message.c_str(),
                 kUsage);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string& flag, const std::string& text)
{
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || end == nullptr || *end != '\0' || text[0] == '-')
        usageError("bad value for " + flag + ": " + text);
    return v;
}

Options
parseOptions(int argc, char** argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            std::fputs(kUsage, stdout);
            std::exit(0);
        }
        if (flag == "--shrink") {
            o.shrink = true;
            continue;
        }
        if (i + 1 >= argc)
            usageError("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            o.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            o.seed = parseUnsigned(flag, value);
        } else if (flag == "--seconds") {
            o.seconds = static_cast<double>(parseUnsigned(flag, value));
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usageError("--trace takes 0 or 1");
            o.trace = value == "1";
        } else if (flag == "--pool") {
            o.pool = parseUnsigned(flag, value);
        } else if (flag == "--commit") {
            o.commit = value;
        } else if (flag == "--spans-out") {
            o.spansOut = value;
        } else {
            usageError("unrecognized flag " + flag);
        }
    }
    if (!haveWorkload)
        usageError("--workload is required");
    bool known = false;
    for (const std::string& name : workloadNames())
        known |= name == o.workload;
    if (!known)
        usageError("unknown workload " + o.workload);
    return o;
}

std::string
jsonString(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", v);
    return buffer;
}

/** A printed metric: value plus unit, in output order. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::vector<double>
field(const std::vector<PassResult>& passes, double PassResult::*member)
{
    std::vector<double> out;
    for (const PassResult& p : passes)
        out.push_back(p.*member);
    return out;
}

/**
 * Medians slot by slot across passes. Slot k of every pass times the same
 * work (the same window or call, in the same order); passes are
 * deterministic, so they have the same slots. The other tenants of a
 * shared host slow the same code by up to 2.2x in spells of a few
 * seconds. A slot's samples lie a pass apart, so its median drops the
 * ones a spell hit, even when spells hit different parts of different
 * passes, which a median of whole passes cannot.
 */
std::vector<double>
slotMedians(const std::vector<std::vector<double>>& passes)
{
    std::size_t slots = passes.empty() ? 0 : passes.front().size();
    for (const auto& p : passes)
        slots = std::min(slots, p.size());
    std::vector<double> out;
    for (std::size_t k = 0; k < slots; ++k) {
        std::vector<double> values;
        for (const auto& p : passes)
            values.push_back(p[k]);
        out.push_back(median(std::move(values)));
    }
    return out;
}

std::vector<std::vector<double>>
laps(const std::vector<PassResult>& passes,
     std::vector<double> PassResult::*member)
{
    std::vector<std::vector<double>> out;
    for (const PassResult& p : passes)
        out.push_back(p.*member);
    return out;
}

/** A typical pass: the sum of its windows' per-slot medians. */
double
slotSum(const std::vector<PassResult>& passes,
        std::vector<double> PassResult::*member)
{
    double sum = 0.0;
    for (const double v : slotMedians(laps(passes, member)))
        sum += v;
    return sum;
}

std::vector<double>
concat(const std::vector<PassResult>& passes,
       std::vector<double> PassResult::*member)
{
    std::vector<double> out;
    for (const PassResult& p : passes)
        out.insert(out.end(), (p.*member).begin(), (p.*member).end());
    return out;
}

/** Per-call values across passes, optionally of one epoch kind. */
template <typename Get>
std::vector<double>
callValues(const std::vector<PassResult>& passes, Get get,
           const EpochKind* kind = nullptr)
{
    std::vector<double> out;
    for (const PassResult& p : passes) {
        for (const CallRecord& c : p.calls) {
            if (kind == nullptr || c.kind == *kind)
                out.push_back(get(c));
        }
    }
    return out;
}

/** Per-call metrics from the traced passes (spans around each call). */
void
addCallLayerMetrics(const std::vector<PassResult>& traced,
                    std::vector<Metric>& out)
{
    out.push_back({"smoothe.iterations",
                   median(callValues(traced,
                                     [](const CallRecord& c) {
                                         return static_cast<double>(
                                             c.iterations);
                                     })),
                   "count"});
    out.push_back({"smoothe.iter_ms",
                   median(callValues(traced,
                                     [](const CallRecord& c) {
                                         return c.iterations
                                                    ? c.ms / static_cast<
                                                                 double>(
                                                          c.iterations)
                                                    : 0.0;
                                     })),
                   "ms"});
    out.push_back({"smoothe.phase.loss_ms",
                   median(callValues(
                       traced, [](const CallRecord& c) { return c.lossMs; })),
                   "ms"});
    out.push_back({"smoothe.phase.gradient_ms",
                   median(callValues(traced,
                                     [](const CallRecord& c) {
                                         return c.gradientMs;
                                     })),
                   "ms"});
    out.push_back({"smoothe.phase.sampling_ms",
                   median(callValues(traced,
                                     [](const CallRecord& c) {
                                         return c.samplingMs;
                                     })),
                   "ms"});
    for (const EpochKind kind : {EpochKind::Cold, EpochKind::Identity,
                                 EpochKind::Patch, EpochKind::Rerecord}) {
        const std::vector<double> ms = callValues(
            traced, [](const CallRecord& c) { return c.ms; }, &kind);
        const double perPass =
            traced.empty() ? 0.0
                           : static_cast<double>(ms.size()) /
                                 static_cast<double>(traced.size());
        out.push_back({std::string("smoothe.epochs.") + toString(kind),
                       perPass, "count"});
        out.push_back({std::string("smoothe.epoch_ms.") + toString(kind),
                       median(ms), "ms"});
    }
}

} // namespace

int
main(int argc, char** argv)
{
    const Options o = parseOptions(argc, argv);
    smoothe::obs::setGlobalLogLevel(smoothe::obs::Level::Warn);
    // One worker unless --pool says otherwise: on a shared 4-vCPU host
    // the 4-worker pool's pass time varied by half between runs of the
    // same inputs, more than any bound the benchmark may set.
    const std::size_t poolSize = o.pool > 0 ? o.pool : 1;
    smoothe::util::ThreadPool::setGlobalThreads(poolSize);

    std::string meta = "{";
    const auto metaField = [&meta](const std::string& key,
                                   const std::string& value) {
        meta += (meta.size() > 1 ? ", " : "") + jsonString(key) + ": " +
                value;
    };
    metaField("workload", jsonString(o.workload));
    metaField("seed", std::to_string(o.seed));
    metaField("trace", o.trace ? "1" : "0");
    metaField("shrink", o.shrink ? "true" : "false");
    metaField("nproc",
              std::to_string(smoothe::util::ThreadPool::hardwareThreads()));
    metaField("pool_size", std::to_string(poolSize));
    metaField("simd",
              jsonString(smoothe::tensor::simd::levelName(
                  smoothe::tensor::simd::activeLevel())));
    metaField("compiler", jsonString(PERFBENCH_COMPILER));
    metaField("build_type", jsonString(PERFBENCH_BUILD_TYPE));
    metaField("commit", jsonString(o.commit));

    SpanRecorder::instance().setEnabled(o.trace);

    // --- set-up, at least 5 times and for at least 1 s; setup_s is the
    // median -------------------------------------------------------------
    std::vector<double> setupSeconds;
    Inputs inputs;
    std::vector<std::string> errors;
    const double setupStart = nowSeconds();
    for (std::size_t k = 0;; ++k) {
        if (k >= 5 && (nowSeconds() - setupStart >= 1.0 || k >= 50))
            break;
        const double start = nowSeconds();
        Inputs next = setUp(o.workload, o.seed, o.shrink);
        setupSeconds.push_back(nowSeconds() - start);
        if (!next.error.empty())
            errors.push_back("set-up: " + next.error);
        if (k > 0 && next.fingerprint() != inputs.fingerprint())
            errors.push_back("set-up is not deterministic");
        inputs = std::move(next);
    }
    warmUp(inputs);

    // --- timed passes ---------------------------------------------------
    // Traced runs alternate untraced and traced passes, so the tracing
    // overhead is measured against passes interleaved with it.
    std::vector<PassResult> untraced, traced;
    const double measureStart = nowSeconds();
    std::vector<double> passWall;
    if (errors.empty()) {
        for (std::size_t i = 0;; ++i) {
            const double elapsed = nowSeconds() - measureStart;
            // At least three passes: the fingerprint must repeat, and
            // each slot's median needs samples seconds apart.
            if (i >= 3 && elapsed + median(passWall) > o.seconds)
                break;
            const bool tracedPass = o.trace && i % 2 == 1;
            SpanRecorder::instance().setEnabled(tracedPass);
            const double start = nowSeconds();
            PassResult pass = runPass(inputs);
            passWall.push_back(nowSeconds() - start);
            (tracedPass ? traced : untraced).push_back(std::move(pass));
        }
    }
    SpanRecorder::instance().setEnabled(o.trace);

    // --- correctness: per-call rejections + cross-pass determinism -----
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<const PassResult*> all;
    for (const auto& p : untraced)
        all.push_back(&p);
    for (const auto& p : traced)
        all.push_back(&p);
    for (const PassResult* p : all) {
        attempted += p->calls.size();
        for (std::size_t c = 0; c < p->calls.size(); ++c) {
            const bool differs =
                c >= all.front()->calls.size() ||
                p->calls[c].hash != all.front()->calls[c].hash;
            if (p->calls[c].failed || differs)
                ++failed;
            if (differs)
                errors.push_back("call " + std::to_string(c) +
                                 " differs between passes");
        }
        for (const std::string& e : p->errors)
            errors.push_back(e);
    }
    const std::uint64_t fingerprint =
        all.empty() ? 0 : all.front()->fingerprint();
    if (attempted == 0) {
        attempted = 1;
        failed = 1;
    }
    const bool correct = failed == 0 && errors.empty();

    // --- metrics ---------------------------------------------------------
    std::vector<Metric> metrics;
    const std::vector<PassResult>& e2e = untraced;
    std::vector<std::vector<double>> callMsByPass;
    for (const PassResult& p : e2e) {
        callMsByPass.push_back({});
        for (const CallRecord& c : p.calls)
            callMsByPass.back().push_back(c.ms);
    }
    const std::vector<double> callMs = slotMedians(callMsByPass);
    double logRatio = 0.0;
    std::size_t ratioCount = 0;
    for (const PassResult* p : all) {
        for (const CallRecord& c : p->calls) {
            if (c.costRatio > 0.0) {
                logRatio += std::log(c.costRatio);
                ++ratioCount;
            }
        }
    }
    const double costRatio =
        ratioCount ? std::exp(logRatio / static_cast<double>(ratioCount))
                   : 0.0;
    const double passS = slotSum(e2e, &PassResult::wallLaps);
    const double cpuS = slotSum(e2e, &PassResult::cpuLaps);

    if (!o.trace) {
        metrics.push_back({"pass_s", passS, "s"});
        metrics.push_back({"extract_ms_p50", median(callMs), "ms"});
        metrics.push_back({"cpu_s", cpuS, "s"});
        metrics.push_back({"cost_ratio", costRatio, "ratio"});
        metrics.push_back({"peak_rss_mb", peakRssMiB(), "MB"});
        metrics.push_back({"setup_s", median(setupSeconds), "s"});
    } else {
        metrics.push_back(
            {"time_to_target_s",
             median(field(e2e, &PassResult::timeToTargetSeconds)), "s"});
        metrics.push_back({"extract_ms_p90", percentile(callMs, 0.9), "ms"});
        metrics.push_back({"datasets.load_ms", median(inputs.loadMs), "ms"});
        metrics.push_back(
            {"eqsat.run_ms", median(concat(traced, &PassResult::eqsatMs)),
             "ms"});
        metrics.push_back(
            {"eqsat.matches",
             median(concat(traced, &PassResult::eqsatMatches)), "count"});
        metrics.push_back(
            {"egraph.export_ms", median(concat(traced, &PassResult::exportMs)),
             "ms"});
        metrics.push_back(
            {"egraph.dirty_classes",
             median(concat(traced, &PassResult::dirtyClasses)), "count"});
        metrics.push_back({"extraction.heuristic_ms",
                           median(inputs.heuristicMs), "ms"});
        addCallLayerMetrics(traced, metrics);
        LayerMetrics layers;
        if (errors.empty())
            layers = replayLayers(inputs, o.seed);
        const auto layer = [&](const std::string& name,
                               const std::string& unit) {
            metrics.push_back({name, layers[name], unit});
        };
        layer("sampler.sample_us", "us");
        layer("sampler.valid_ratio", "ratio");
        layer("autodiff.record_ms", "ms");
        layer("autodiff.forward_ms", "ms");
        layer("autodiff.backward_ms", "ms");
        layer("autodiff.trexpm_ms", "ms");
        layer("autodiff.planned_bytes", "bytes");
        for (const char* kernel :
             {"segment_softmax", "segment_product_complement",
              "segment_max_gather", "gather_cols", "spmv"}) {
            layer(std::string("tensor.") + kernel + "_us", "us");
            layer(std::string("tensor.") + kernel + "_gbps", "GB/s");
        }
        layer("pool.parallel_for_us", "us");
        metrics.push_back(
            {"pool.cpu_per_wall", passS > 0.0 ? cpuS / passS : 0.0, "ratio"});
        const double tracedS = slotSum(traced, &PassResult::wallLaps);
        metrics.push_back(
            {"trace.overhead_pct",
             passS > 0.0 ? 100.0 * (tracedS - passS) / passS : 0.0, "%"});
    }
    meta += ", \"passes\": " + std::to_string(untraced.size() + traced.size());
    meta += ", \"setups\": " + std::to_string(setupSeconds.size()) + "}";

    // --- output ----------------------------------------------------------
    std::printf("# meta %s\n", meta.c_str());
    std::printf("# inputs %zu graphs, %zu terms, fingerprint %s\n",
                inputs.graphs.size(), inputs.terms.size(),
                hex(inputs.fingerprint()).c_str());
    std::printf("# passes %zu untraced + %zu traced, %zu calls "
                "(extract_ms_p90 over %zu per-call medians of %zu passes), "
                "result fingerprint %s\n",
                untraced.size(), traced.size(), attempted, callMs.size(),
                e2e.size(), hex(fingerprint).c_str());
    std::printf("# pass walls (s):");
    for (const PassResult& p : untraced)
        std::printf(" %.3f", p.wallSeconds);
    for (const PassResult& p : traced)
        std::printf(" %.3f(traced)", p.wallSeconds);
    std::printf("\n");
    std::printf("# fail_rate %.6g (%zu of %zu calls)\n",
                static_cast<double>(failed) / static_cast<double>(attempted),
                failed, attempted);
    if (!all.empty()) {
        std::printf("# %-22s %6s %6s %5s %5s %9s %10s %10s %s\n", "call",
                    "N", "M", "scc", "iters", "ms", "cost", "heur+",
                    "kind");
        for (const CallRecord& c : all.front()->calls) {
            std::printf("# %-22s %6zu %6zu %5zu %5zu %9.1f %10.6g %10.6g "
                        "%s\n",
                        c.input->name.c_str(), c.input->graph.numNodes(),
                        c.input->graph.numClasses(), c.largestScc,
                        c.iterations, c.ms, c.cost, c.input->refCost,
                        toString(c.kind));
        }
        const PassResult& first = *all.front();
        for (std::size_t t = 0; t < first.termTimeToTarget.size(); ++t) {
            std::printf("# term %-20s time to target %8.3f s%s\n",
                        inputs.terms[t].name.c_str(),
                        first.termTimeToTarget[t],
                        first.termReached[t] ? "" : " (never reached)");
        }
    }
    for (const std::string& e : errors)
        std::printf("# REJECTED %s\n", e.c_str());
    for (const Metric& m : metrics)
        std::printf("# %-36s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (o.trace) {
        const SpanRecorder& rec = SpanRecorder::instance();
        std::printf("# span self time (s), count\n");
        for (const auto& [name, t] : rec.selfTotals())
            std::printf("#   %-36s %10.4f %8zu\n", name.c_str(), t.first,
                        t.second);
        if (!o.spansOut.empty() && !rec.writeJson(o.spansOut, meta))
            std::fprintf(stderr, "cannot write %s\n", o.spansOut.c_str());
    }

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", " : "") + jsonString(metrics[i].name) +
                ": {\"value\": " + number(metrics[i].value) +
                ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
