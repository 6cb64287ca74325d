#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "datasets/eqsat_grown.hpp"
#include "datasets/registry.hpp"
#include "eqsat/mut_egraph.hpp"
#include "extraction/bottom_up.hpp"
#include "extraction/validate.hpp"
#include "obs/metrics.hpp"
#include "smoothe/smoothe.hpp"
#include "support.hpp"

namespace perfbench {

namespace ex = smoothe::extract;
namespace eqsat = smoothe::eqsat;
namespace core = smoothe::core;
namespace datasets = smoothe::datasets;

namespace {

constexpr double kTargetSlack = 1.01;

/** Per-op cost in the eqsat-grown term languages (the same table the
 *  anytime eqsat bench uses: leaves free, multiplies dear). */
double
opCost(const std::string& op, std::size_t)
{
    if (op == "zero" || op == "one" || op == "two" || op == "three" ||
        op == "five" || op.rfind("v", 0) == 0)
        return 0.0;
    if (op == "+" || op == "-")
        return 4.0;
    if (op == "<<" || op == "neg")
        return 1.0;
    if (op == "min" || op == "max")
        return 2.0;
    if (op == "*" || op == "square")
        return 16.0;
    if (op == "mac")
        return 17.0;
    return 8.0;
}

const std::vector<eqsat::Rewrite>&
caviarPhaseFor(std::size_t epoch)
{
    const auto& phases = eqsat::caviarRulePhases();
    return phases[epoch % phases.size()];
}

const std::vector<eqsat::Rewrite>&
datapathFor(std::size_t)
{
    return eqsat::datapathRules();
}

const std::vector<eqsat::Rewrite>&
arithmeticFor(std::size_t)
{
    return eqsat::arithmeticRules();
}

/** Rover-style FIR seed: sum of coefficient taps. */
eqsat::TermPtr
firTerm(std::size_t taps)
{
    const char* coefficients[] = {"two", "three", "five", "one"};
    eqsat::TermPtr acc;
    for (std::size_t k = 0; k < taps; ++k) {
        std::string var = "v";
        var += std::to_string(k);
        eqsat::TermPtr tap = eqsat::app(
            "*", {eqsat::leaf(coefficients[k % 4]),
                  eqsat::leaf(std::move(var))});
        acc = acc ? eqsat::app("+", {acc, tap}) : tap;
    }
    return acc;
}

/** Node cap of epoch `e` (0-based): ramps linearly to `cap`. */
std::size_t
epochCap(std::size_t e, std::size_t epochs, std::size_t cap)
{
    return cap * (e + 1) / epochs;
}

eqsat::RunLimits
epochLimits(std::size_t e, const Inputs& in)
{
    eqsat::RunLimits limits;
    limits.maxIterations = 1;
    limits.maxNodes = epochCap(e, in.epochs, in.nodeCap);
    limits.maxMatchesPerRule = 1000;
    return limits;
}

/** heuristic+ on `input.graph`, validated, timed as a layer call. */
bool
reference(GraphInput& input, Inputs& in)
{
    ex::FasterBottomUpExtractor heuristic;
    ex::ExtractionResult result;
    {
        Span span("extraction.heuristic");
        result = heuristic.extract(input.graph, ex::ExtractOptions{});
        in.heuristicMs.push_back(span.end() * 1e3);
    }
    if (!result.ok() || !ex::validateResult(input.graph, result).ok()) {
        in.error = "heuristic+ reference rejected on " + input.name;
        return false;
    }
    input.refCost = result.cost;
    input.hash = graphHash(input.graph);
    return true;
}

std::size_t
largestScc(const eg::EGraph& graph)
{
    std::size_t largest = 0;
    for (const auto& scc : graph.classSccs())
        largest = std::max(largest, scc.size());
    return largest;
}

/**
 * tensat-shaped graphs drawn from the seed's stream, keeping those whose
 * largest SCC lies in a fixed band: tr(expm) work grows with the cube of
 * the SCC size, so the band fixes how much matrix-exponential work each
 * graph carries while the seed still varies everything else.
 */
void
setUpCyclic(Inputs& in)
{
    const double scale = in.shrink ? 0.05 : 0.06;
    const std::size_t lo = in.shrink ? 8 : 40;
    const std::size_t hi = in.shrink ? 40 : 48;
    const std::size_t count = in.shrink ? 3 : 48;
    datasets::FamilyParams params = datasets::tensatParams();
    params.numClasses = static_cast<std::size_t>(
        static_cast<double>(params.numClasses) * scale);
    smoothe::util::Rng seeds(in.seed);
    for (std::size_t draw = 0; in.graphs.size() < count; ++draw) {
        if (draw >= 100 * count) {
            in.error = "too few tensat graphs with an SCC in the band";
            return;
        }
        GraphInput input;
        {
            Span span("datasets.load");
            input.graph = datasets::generateStructured(params, seeds.next());
            in.loadMs.push_back(span.end() * 1e3);
        }
        const std::size_t scc = largestScc(input.graph);
        if (scc < lo || scc > hi)
            continue;
        input.name = "tensat_" + std::to_string(draw);
        if (!reference(input, in))
            return;
        in.graphs.push_back(std::move(input));
    }
}

/** Runs `term`'s saturation loop once, untimed: the per-epoch exports
 *  the timed passes must reproduce, with their heuristic+ references. */
bool
dryRun(TermInput& term, Inputs& in)
{
    eqsat::MutEGraph mut;
    const eqsat::Id root = mut.addTerm(*term.term);
    mut.enableDeltaLog(true);
    eqsat::ExportState exportState;
    for (std::size_t e = 0; e < in.epochs; ++e) {
        mut.run(term.rulesFor(e), epochLimits(e, in));
        mut.drainDelta();
        GraphInput input;
        input.name = term.name + "/epoch" + std::to_string(e);
        input.graph =
            mut.exportIncremental(mut.find(root), &opCost, exportState).graph;
        if (!reference(input, in))
            return false;
        term.epochs.push_back(std::move(input));
    }
    term.targetCost = kTargetSlack * term.epochs.back().refCost;
    return true;
}

/**
 * Seed terms drawn from the seed's stream, round-robin over the anytime
 * eqsat bench's four flavors (caviar depth 4 and 5, FIR, arithmetic).
 * A term is kept when its loop grows the graph to at least half the
 * node cap and its final export's largest SCC stays within a bound:
 * tr(expm) work grows with the cube of the SCC size, so one term with a
 * 300-class SCC costs more than all others together, and one or two
 * with 55-64 classes slowed a whole pass by up to 1.7x per unit of
 * work. The pass time would then be a function of a few draws
 * (SCC-heavy extraction is what cyclic_scc measures).
 */
void
setUpAnytime(Inputs& in)
{
    in.epochs = in.shrink ? 4 : 8;
    in.nodeCap = 400;
    const std::size_t rounds = in.shrink ? 1 : 4;
    const std::size_t sccMax = 32;
    const std::size_t minNodes = in.shrink ? 0 : in.nodeCap / 2;
    smoothe::util::Rng termRng(in.seed);
    // Sums of random subtrees, so single-rule collapses (x - x -> 0)
    // cannot reduce a term to a leaf.
    const auto caviarSeed = [&termRng](std::size_t depth) {
        using datasets::TermFlavor;
        return eqsat::app(
            "max",
            {eqsat::app("+", {datasets::randomTerm(TermFlavor::Caviar, depth,
                                                   4, termRng),
                              datasets::randomTerm(TermFlavor::Caviar, depth,
                                                   4, termRng)}),
             datasets::randomTerm(TermFlavor::Caviar, depth, 4, termRng)});
    };
    std::size_t firDraws = 0;
    const auto draw = [&](std::size_t flavor) -> TermInput {
        switch (flavor) {
          case 0:
            return {"caviar_a", caviarSeed(4), &caviarPhaseFor, {}, 0};
          case 1:
            return {"caviar_b", caviarSeed(5), &caviarPhaseFor, {}, 0};
          case 2: {
            // The first is the anytime eqsat bench's fir_6.
            const std::size_t taps =
                firDraws++ == 0 ? 6 : 5 + termRng.uniformIndex(3);
            return {"fir_" + std::to_string(taps), firTerm(taps),
                    &datapathFor, {}, 0};
          }
          default:
            return {"arith",
                    datasets::randomTerm(datasets::TermFlavor::Arithmetic, 5,
                                         4, termRng),
                    &arithmeticFor, {}, 0};
        }
    };
    for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t flavor = 0; flavor < 4; ++flavor) {
            for (std::size_t attempt = 0;; ++attempt) {
                if (attempt == 50) {
                    in.error = "no term of flavor " + std::to_string(flavor) +
                               " fits the anytime workload";
                    return;
                }
                TermInput term;
                {
                    Span span("datasets.load");
                    term = draw(flavor);
                    in.loadMs.push_back(span.end() * 1e3);
                }
                term.name += "/r" + std::to_string(r);
                if (!dryRun(term, in))
                    return;
                const eg::EGraph& last = term.epochs.back().graph;
                if (largestScc(last) <= sccMax &&
                    last.numNodes() >= minNodes) {
                    in.terms.push_back(std::move(term));
                    break;
                }
            }
        }
    }
}

/** Checks and scores one SmoothE result outside the timed window. */
void
score(const GraphInput& input, const ex::ExtractionResult& result,
      const core::SmoothEExtractor& smoothe, CallRecord& call,
      PassResult& pass)
{
    const auto& diag = smoothe.diagnostics();
    call.input = &input;
    call.cost = result.cost;
    call.largestScc = diag.largestScc;
    call.iterations = diag.iterations;
    call.lossMs = diag.profile.lossSeconds * 1e3;
    call.gradientMs = diag.profile.gradientSeconds * 1e3;
    call.samplingMs = diag.profile.samplingSeconds * 1e3;

    Fnv fnv;
    fnv.add(input.hash);
    for (const eg::NodeId node : result.selection.choice)
        fnv.add(node);
    fnv.add(result.cost);
    call.hash = fnv.value();

    Span span("check.validate");
    if (!result.ok()) {
        call.failed = true;
        pass.errors.push_back(input.name + ": status " +
                              ex::toString(result.status) + " (" +
                              result.note + ")");
        return;
    }
    const auto verdict = ex::validateResult(input.graph, result);
    if (!verdict.ok()) {
        call.failed = true;
        pass.errors.push_back(input.name + ": " + verdict.message);
        return;
    }
    // A zero-cost reference leaves the ratio undefined unless SmoothE
    // reaches zero too; such calls stay out of the geometric mean.
    if (input.refCost > 0.0)
        call.costRatio = result.cost / input.refCost;
    else if (result.cost == 0.0)
        call.costRatio = 1.0;
}

/** The extraction options every workload uses: library defaults plus
 *  the incumbent trace that time_to_target_s reads on the suites. */
ex::ExtractOptions
extractOptions()
{
    ex::ExtractOptions options;
    options.recordTrace = true;
    return options;
}

void
runSuitePass(const Inputs& in, PassResult& pass, Stopwatch& watch)
{
    core::SmoothEExtractor smoothe{core::SmoothEConfig{}};
    const ex::ExtractOptions options = extractOptions();
    for (const GraphInput& input : in.graphs) {
        CallRecord call;
        ex::ExtractionResult result;
        watch.start();
        {
            Span span("smoothe.extract");
            result = smoothe.extract(input.graph, options);
            call.ms = span.end() * 1e3;
        }
        watch.stop();
        score(input, result, smoothe, call, pass);
        // Time until the incumbent first reaches the target, or the
        // whole call when it never does.
        double reached = result.seconds;
        for (const auto& point : result.trace) {
            if (point.cost <= kTargetSlack * input.refCost) {
                reached = point.seconds;
                break;
            }
        }
        pass.timeToTargetSeconds += reached;
        pass.calls.push_back(call);
    }
}

void
runAnytimePass(const Inputs& in, PassResult& pass, Stopwatch& watch)
{
    auto& identity = smoothe::obs::counter("smoothe.identity_skips");
    auto& patch = smoothe::obs::counter("program.patch");
    auto& rerecord = smoothe::obs::counter("program.rerecord");
    const ex::ExtractOptions options = extractOptions();

    for (const TermInput& term : in.terms) {
        Stopwatch loop; // this term's loop time, for time_to_target_s
        const auto timed = [&](auto&& body) {
            watch.start();
            loop.start();
            body();
            loop.stop();
            watch.stop();
        };

        eqsat::MutEGraph mut;
        eqsat::Id root = 0;
        core::SmoothEExtractor smoothe{core::SmoothEConfig{}};
        eqsat::ExportState exportState;
        ex::IncrementalState state;
        timed([&] {
            root = mut.addTerm(*term.term);
            mut.enableDeltaLog(true);
        });

        double best = std::numeric_limits<double>::infinity();
        bool reached = false;
        for (std::size_t e = 0; e < in.epochs; ++e) {
            // Groups the epoch's layer spans under one id.
            Span epochSpan("anytime.epoch");
            const GraphInput& expected = term.epochs[e];
            eqsat::MutEGraph snapshot = mut;
            eqsat::RunStats stats;
            timed([&] {
                Span span("eqsat.run");
                stats = mut.run(term.rulesFor(e), epochLimits(e, in));
                pass.eqsatMs.push_back(span.end() * 1e3);
            });
            pass.eqsatMatches.push_back(
                static_cast<double>(stats.totalMatches));

            // Delta-replay cross-check: the drained delta applied to the
            // pre-epoch snapshot must reproduce the rebuilt e-graph.
            std::string crosscheck;
            {
                Span span("check.delta_replay");
                snapshot.applyDelta(mut.drainDelta());
                if (const auto diff = snapshot.structurallyEquals(mut))
                    crosscheck = "delta replay diverged: " + *diff;
            }

            eqsat::ExportResult exported;
            ex::ExtractionResult result;
            CallRecord call;
            const std::uint64_t identityBefore = identity.get();
            const std::uint64_t patchBefore = patch.get();
            const std::uint64_t rerecordBefore = rerecord.get();
            timed([&] {
                {
                    Span span("egraph.export");
                    exported = mut.exportIncremental(mut.find(root),
                                                     &opCost, exportState);
                    pass.exportMs.push_back(span.end() * 1e3);
                }
                Span span("smoothe.extract");
                result = smoothe.extractIncremental(
                    exported.graph, exported.delta, state, options);
                call.ms = span.end() * 1e3;
            });
            pass.dirtyClasses.push_back(
                static_cast<double>(exported.delta.dirtyClasses.size()));
            if (identity.get() > identityBefore)
                call.kind = EpochKind::Identity;
            else if (patch.get() > patchBefore)
                call.kind = EpochKind::Patch;
            else if (rerecord.get() > rerecordBefore)
                call.kind = EpochKind::Rerecord;

            score(expected, result, smoothe, call, pass);
            if (graphHash(exported.graph) != expected.hash) {
                call.failed = true;
                pass.errors.push_back(expected.name +
                                      ": export differs from set-up");
            }
            if (!crosscheck.empty()) {
                call.failed = true;
                pass.errors.push_back(expected.name + ": " + crosscheck);
            }
            if (!call.failed)
                best = std::min(best, result.cost);
            if (!reached && best <= term.targetCost) {
                reached = true;
                pass.termTimeToTarget.push_back(loop.wallSeconds());
            }
            pass.calls.push_back(call);
        }
        if (!reached)
            pass.termTimeToTarget.push_back(loop.wallSeconds());
        pass.termReached.push_back(reached);
        pass.timeToTargetSeconds += pass.termTimeToTarget.back();
    }
}

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names{"cyclic_scc",
                                                "anytime_eqsat"};
    return names;
}

std::uint64_t
graphHash(const eg::EGraph& graph)
{
    Fnv fnv;
    fnv.add(graph.numNodes());
    fnv.add(graph.numClasses());
    fnv.add(graph.root());
    for (eg::NodeId id = 0; id < graph.numNodes(); ++id) {
        const eg::ENode& node = graph.node(id);
        fnv.add(node.op);
        fnv.add(graph.classOf(id));
        fnv.add(node.cost);
        fnv.add(node.children.size());
        for (const eg::ClassId child : node.children)
            fnv.add(child);
    }
    return fnv.value();
}

std::vector<const GraphInput*>
Inputs::layerGraphs() const
{
    std::vector<const GraphInput*> out;
    for (const GraphInput& g : graphs)
        out.push_back(&g);
    for (const TermInput& t : terms)
        out.push_back(&t.epochs.back());
    return out;
}

std::uint64_t
Inputs::fingerprint() const
{
    Fnv fnv;
    const auto addGraph = [&fnv](const GraphInput& g) {
        fnv.add(g.hash);
        fnv.add(g.refCost);
    };
    for (const GraphInput& g : graphs)
        addGraph(g);
    for (const TermInput& t : terms) {
        for (const GraphInput& g : t.epochs)
            addGraph(g);
    }
    return fnv.value();
}

Inputs
setUp(const std::string& workload, std::uint64_t seed, bool shrink)
{
    Inputs in;
    in.workload = workload;
    in.seed = seed;
    in.shrink = shrink;
    if (workload == "cyclic_scc")
        setUpCyclic(in);
    else if (workload == "anytime_eqsat")
        setUpAnytime(in);
    else
        in.error = "unknown workload " + workload;
    return in;
}

const char*
toString(EpochKind kind)
{
    switch (kind) {
      case EpochKind::Cold:
        return "cold";
      case EpochKind::Identity:
        return "identity";
      case EpochKind::Patch:
        return "patch";
      case EpochKind::Rerecord:
        return "rerecord";
    }
    return "?";
}

std::uint64_t
PassResult::fingerprint() const
{
    Fnv fnv;
    for (const CallRecord& call : calls)
        fnv.add(call.hash);
    return fnv.value();
}

PassResult
runPass(const Inputs& inputs)
{
    PassResult pass;
    Stopwatch watch;
    if (inputs.workload == "anytime_eqsat")
        runAnytimePass(inputs, pass, watch);
    else
        runSuitePass(inputs, pass, watch);
    pass.wallSeconds = watch.wallSeconds();
    pass.wallLaps = watch.wallLaps();
    pass.cpuLaps = watch.cpuLaps();
    return pass;
}

void
warmUp(const Inputs& inputs)
{
    const std::vector<const GraphInput*> graphs = inputs.layerGraphs();
    if (graphs.empty())
        return;
    const GraphInput* smallest = *std::min_element(
        graphs.begin(), graphs.end(), [](const auto* a, const auto* b) {
            return a->graph.numNodes() < b->graph.numNodes();
        });
    core::SmoothEExtractor smoothe{core::SmoothEConfig{}};
    smoothe.extract(smallest->graph, extractOptions());
}

} // namespace perfbench
