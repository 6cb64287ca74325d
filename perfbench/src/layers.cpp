#include "layers.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "autodiff/matexp.hpp"
#include "autodiff/program.hpp"
#include "autodiff/tape.hpp"
#include "extraction/solution.hpp"
#include "smoothe/sampler.hpp"
#include "smoothe/smoothe.hpp"
#include "support.hpp"
#include "tensor/kernels.hpp"
#include "tensor/sparse.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace ad = smoothe::ad;
namespace st = smoothe::tensor;
namespace core = smoothe::core;
namespace ex = smoothe::extract;

namespace {

/** SmoothE's seed batch (SmoothEConfig{}.numSeeds). */
const std::size_t kBatch = core::SmoothEConfig{}.numSeeds;
constexpr int kKernelReps = 30;
constexpr int kProgramReps = 5;
constexpr int kExpmReps = 3;
constexpr int kPoolReps = 200;
constexpr double kBytes = st::cost::kElemBytes;

/**
 * The index structures a SmoothE iteration records over, derived from
 * the graph through its public API the way SmoothE's own preparation
 * does (class members, distinct parents, node -> class, root masks,
 * NOTEARS SCC scatter entries, propagation depth).
 */
struct Structure
{
    std::size_t numNodes = 0;
    std::size_t numClasses = 0;
    eg::ClassId root = 0;
    st::SegmentIndex members;
    st::SegmentIndex parents;
    std::vector<std::uint32_t> node2class;
    st::Tensor rootMask;
    st::Tensor notRootMask;
    struct Scc
    {
        std::size_t dim = 0;
        std::vector<st::MatrixEntry> entries;
    };
    std::vector<Scc> sccs;
    std::size_t propIterations = 0;
    std::vector<float> costs;

    explicit Structure(const eg::EGraph& graph);
};

Structure::Structure(const eg::EGraph& graph)
    : numNodes(graph.numNodes()), numClasses(graph.numClasses()),
      root(graph.root()), node2class(graph.numNodes()), rootMask(1, graph.numClasses()),
      notRootMask(1, graph.numClasses(), 1.0f), costs(graph.numNodes())
{
    const std::size_t m = numClasses;
    for (eg::NodeId n = 0; n < numNodes; ++n) {
        node2class[n] = graph.classOf(n);
        costs[n] = static_cast<float>(graph.node(n).cost);
    }
    members = st::SegmentIndex::fromAssignment(node2class, m);
    parents.offsets.assign(m + 1, 0);
    for (eg::ClassId c = 0; c < m; ++c) {
        parents.offsets[c + 1] =
            parents.offsets[c] +
            static_cast<std::uint32_t>(graph.parents(c).size());
        for (const eg::NodeId p : graph.parents(c))
            parents.items.push_back(p);
    }
    rootMask.at(0, graph.root()) = 1.0f;
    notRootMask.at(0, graph.root()) = 0.0f;

    constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> local(m, kNone);
    for (const auto& scc : graph.classSccs()) {
        bool selfLoop = false;
        for (const eg::NodeId n : graph.nodesInClass(scc.front())) {
            const auto& ch = graph.node(n).children;
            selfLoop |= std::find(ch.begin(), ch.end(), scc.front()) !=
                        ch.end();
        }
        if (scc.size() < 2 && !selfLoop)
            continue;
        Scc out;
        out.dim = scc.size();
        for (std::size_t i = 0; i < scc.size(); ++i)
            local[scc[i]] = static_cast<std::uint32_t>(i);
        for (const eg::ClassId c : scc) {
            for (const eg::NodeId n : graph.nodesInClass(c)) {
                std::vector<eg::ClassId> ch = graph.node(n).children;
                std::sort(ch.begin(), ch.end());
                ch.erase(std::unique(ch.begin(), ch.end()), ch.end());
                for (const eg::ClassId child : ch) {
                    if (local[child] != kNone)
                        out.entries.push_back(
                            {n, static_cast<std::uint32_t>(
                                    local[c] * out.dim + local[child])});
                }
            }
        }
        for (const eg::ClassId c : scc)
            local[c] = kNone;
        sccs.push_back(std::move(out));
    }

    // BFS depth of the class graph from the root, clamped like SmoothE.
    std::vector<std::uint32_t> level(m, kNone);
    std::vector<eg::ClassId> order{graph.root()};
    level[graph.root()] = 0;
    std::uint32_t depth = 0;
    for (std::size_t head = 0; head < order.size(); ++head) {
        const eg::ClassId c = order[head];
        depth = std::max(depth, level[c]);
        for (const eg::NodeId n : graph.nodesInClass(c)) {
            for (const eg::ClassId child : graph.node(n).children) {
                if (level[child] == kNone) {
                    level[child] = level[c] + 1;
                    order.push_back(child);
                }
            }
        }
    }
    propIterations = std::clamp<std::size_t>(depth + 2, 4, 48);
}

/**
 * Records one SmoothE-shaped iteration (hybrid assumption, linear cost,
 * NOTEARS penalty per SCC behind a "lambda" input) and compiles it.
 */
ad::Program
recordIteration(const Structure& s, ad::Param& theta)
{
    ad::Tape tape;
    const ad::VarId cp =
        tape.segmentSoftmax(tape.leaf(&theta), &s.members);
    st::Tensor q0(kBatch, s.numClasses);
    for (std::size_t b = 0; b < kBatch; ++b)
        q0.at(b, s.root) = 1.0f;
    ad::VarId q = tape.constant(std::move(q0));
    for (std::size_t t = 0; t < s.propIterations; ++t) {
        const ad::VarId p = tape.mul(cp, tape.gatherCols(q, &s.node2class));
        const ad::VarId ind = tape.addScalar(
            tape.scale(tape.segmentProductComplement(p, &s.parents), -1.0f),
            1.0f);
        const ad::VarId corr = tape.segmentMaxGather(p, &s.parents);
        const ad::VarId qNew = tape.scale(tape.add(ind, corr), 0.5f);
        q = tape.addConst(tape.mulConst(qNew, s.notRootMask), s.rootMask);
    }
    const ad::VarId p = tape.mul(cp, tape.gatherCols(q, &s.node2class));
    const ad::VarId costs = tape.dotRowsConst(p, s.costs);
    ad::VarId loss = tape.sumAll(costs);
    ad::VarId penalty = -1;
    for (const auto& scc : s.sccs) {
        const ad::VarId a = tape.scatterMatrix(cp, &scc.entries, scc.dim, true);
        const ad::VarId tr = tape.trExpm(a, scc.dim);
        const ad::VarId h =
            tape.addScalar(tape.sumAll(tr), -static_cast<float>(scc.dim));
        penalty = penalty < 0 ? h : tape.add(penalty, h);
    }
    std::vector<ad::VarId> outputs{cp, costs};
    if (penalty >= 0) {
        st::Tensor coeff(1, 1, 8.0f * static_cast<float>(kBatch));
        loss = tape.add(loss, tape.mul(penalty,
                                       tape.input(std::move(coeff),
                                                  "lambda")));
        outputs.push_back(penalty);
    }
    return ad::Program(std::move(tape), loss, std::move(outputs));
}

/** Times `fn` `reps` times under a span; returns the median seconds. */
template <typename Fn>
double
medianCall(const char* span_name, int reps, Fn&& fn)
{
    std::vector<double> seconds;
    for (int r = 0; r < reps; ++r) {
        Span span(span_name);
        fn();
        seconds.push_back(span.end());
    }
    return median(seconds);
}

/** Per-kernel accumulation across graphs. */
struct KernelStats
{
    std::vector<double> us; ///< per-graph median call time
    double bytes = 0.0;     ///< computed bytes over the median calls
    double seconds = 0.0;

    void
    add(double median_seconds, double call_bytes)
    {
        us.push_back(median_seconds * 1e6);
        bytes += call_bytes;
        seconds += median_seconds;
    }
};

} // namespace

LayerMetrics
replayLayers(const Inputs& inputs, std::uint64_t seed)
{
    const auto backend = st::Backend::Vectorized;

    std::vector<double> sampleUs, recordMs, forwardMs, backwardMs,
        trexpmMs, poolUs;
    std::vector<std::size_t> nodeCounts;
    std::size_t attempts = 0, valid = 0;
    double plannedBytes = 0.0;
    std::map<std::string, KernelStats> kernels;

    std::uint64_t graphIndex = 0;
    for (const GraphInput* input : inputs.layerGraphs()) {
        const eg::EGraph& graph = input->graph;
        const Structure s(graph);
        const std::size_t n = s.numNodes;
        const std::size_t m = s.numClasses;
        smoothe::util::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * ++graphIndex));
        ad::Param theta{st::Tensor(kBatch, n)};
        for (std::size_t i = 0; i < theta.value.size(); ++i)
            theta.value.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));

        // --- sampler over the cp rows of one phi evaluation -----------
        const core::Probabilities probs = core::computeProbabilities(
            graph, theta.value, core::Assumption::Hybrid);
        core::GreedySampler sampler(graph);
        for (std::size_t b = 0; b < kBatch; ++b) {
            ex::Selection sel;
            {
                Span span("sampler.sample");
                sel = sampler.sample(probs.cp.row(b), true, 0.0f, rng);
                sampleUs.push_back(span.end() * 1e6);
            }
            ++attempts;
            if (sel.chosen(graph.root()) && ex::validate(graph, sel).ok())
                ++valid;
        }

        // --- autodiff: record + compile, replay forward/backward -----
        std::optional<ad::Program> program;
        {
            Span span("autodiff.record");
            program.emplace(recordIteration(s, theta));
            recordMs.push_back(span.end() * 1e3);
        }
        plannedBytes = std::max(
            plannedBytes, static_cast<double>(program->stats().plannedBytes));
        forwardMs.push_back(
            1e3 * medianCall("autodiff.forward", kProgramReps,
                             [&] { program->forward(); }));
        backwardMs.push_back(
            1e3 * medianCall("autodiff.backward", kProgramReps,
                             [&] { program->backward(); }));

        // --- tr(expm) at this graph's SCC sizes, on a real cp row ----
        if (!s.sccs.empty()) {
            double total = 0.0;
            for (const auto& scc : s.sccs) {
                std::vector<float> a(scc.dim * scc.dim, 0.0f);
                for (const auto& entry : scc.entries)
                    a[entry.position] += probs.cp.at(0, entry.column);
                total += medianCall("autodiff.trexpm", kExpmReps, [&] {
                    volatile double tr = ad::traceExpm(a.data(), scc.dim);
                    (void)tr;
                });
            }
            trexpmMs.push_back(total * 1e3);
        }

        // --- tensor kernels at [B x N] with the graph's segments -----
        const st::Tensor& x = theta.value;
        st::Tensor p(kBatch, n);
        for (std::size_t i = 0; i < p.size(); ++i)
            p.data()[i] = 0.3f * rng.uniformFloat();
        st::Tensor outN(kBatch, n);
        st::Tensor outM(kBatch, m);
        st::Tensor q(kBatch, m, 0.5f);
        std::vector<std::uint32_t> arg;
        const double a = static_cast<double>(kBatch * n);
        kernels["segment_softmax"].add(
            medianCall("tensor.segment_softmax", kKernelReps,
                       [&] {
                           st::segmentSoftmaxInto(x, s.members, outN,
                                                  backend);
                       }),
            6 * kBytes * a);
        kernels["segment_product_complement"].add(
            medianCall("tensor.segment_product_complement", kKernelReps,
                       [&] {
                           st::segmentProductComplementInto(
                               p, s.parents, outM, backend);
                       }),
            2 * kBytes * a);
        kernels["segment_max_gather"].add(
            medianCall("tensor.segment_max_gather", kKernelReps,
                       [&] {
                           st::segmentMaxGatherInto(p, s.parents, outM, arg,
                                                    backend);
                       }),
            2 * kBytes * a);
        kernels["gather_cols"].add(
            medianCall("tensor.gather_cols", kKernelReps,
                       [&] {
                           st::gatherColsInto(q, s.node2class, outN,
                                              backend);
                       }),
            3 * kBytes * a);
        const st::CsrMatrix csr = st::csrFromSegments(s.parents, n);
        const double nnz = static_cast<double>(csr.nnz());
        kernels["spmv"].add(
            medianCall("tensor.spmv", kKernelReps,
                       [&] { st::spmv(csr, p, outM, backend); }),
            // CSR value + column index per nonzero, one x read per
            // nonzero and one output write per row, for each batch row.
            8.0 * nnz + kBytes * static_cast<double>(kBatch) *
                            (nnz + static_cast<double>(m)));

        nodeCounts.push_back(n);
    }

    // --- thread pool: one empty fan-out over N items per graph, at the
    // size a multi-core caller would pick, whatever the passes used ----
    auto& pool = smoothe::util::ThreadPool::global();
    const std::size_t passWorkers = pool.size();
    smoothe::util::ThreadPool::setGlobalThreads(std::min<std::size_t>(
        4, smoothe::util::ThreadPool::hardwareThreads()));
    for (const std::size_t n : nodeCounts) {
        const std::size_t grain =
            std::max<std::size_t>(1, (n + pool.size() - 1) / pool.size());
        poolUs.push_back(
            1e6 * medianCall("pool.parallel_for", kPoolReps, [&] {
                pool.parallelFor(0, n, grain, [](std::size_t) {});
            }));
    }
    smoothe::util::ThreadPool::setGlobalThreads(passWorkers);

    LayerMetrics out;
    out["sampler.sample_us"] = median(sampleUs);
    out["sampler.valid_ratio"] =
        attempts ? static_cast<double>(valid) / static_cast<double>(attempts)
                 : 0.0;
    out["autodiff.record_ms"] = median(recordMs);
    out["autodiff.forward_ms"] = median(forwardMs);
    out["autodiff.backward_ms"] = median(backwardMs);
    out["autodiff.trexpm_ms"] = median(trexpmMs);
    out["autodiff.planned_bytes"] = plannedBytes;
    for (const auto& [name, k] : kernels) {
        out["tensor." + name + "_us"] = median(k.us);
        out["tensor." + name + "_gbps"] =
            k.seconds > 0.0 ? k.bytes / k.seconds * 1e-9 : 0.0;
    }
    out["pool.parallel_for_us"] = median(poolUs);
    return out;
}

} // namespace perfbench
