/**
 * @file
 * The benchmark's two workloads: how their inputs are generated from
 * the workload seed (set-up, including the heuristic+ reference
 * extractions) and how one timed pass runs over them.
 */

#ifndef SMOOTHE_PERFBENCH_WORKLOADS_HPP
#define SMOOTHE_PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "egraph/egraph.hpp"
#include "eqsat/rules.hpp"
#include "eqsat/term.hpp"

namespace perfbench {

namespace eg = smoothe::eg;

/** Workload names in the order `--help` lists them. */
const std::vector<std::string>& workloadNames();

/** One extraction input: a suite graph or one epoch's export. */
struct GraphInput
{
    std::string name;
    eg::EGraph graph;
    std::uint64_t hash = 0;  ///< structural fingerprint of `graph`
    double refCost = 0.0;    ///< heuristic+ cost on `graph`
};

/** One seed term of the anytime loop with its per-epoch exports. */
struct TermInput
{
    std::string name;
    smoothe::eqsat::TermPtr term;
    /** Rules driven in epoch `e` (caviar cycles its TRS phases). */
    const std::vector<smoothe::eqsat::Rewrite>& (*rulesFor)(std::size_t);
    std::vector<GraphInput> epochs;
    double targetCost = 0.0; ///< 1.01 x heuristic+ on the final epoch
};

/** Everything a workload's passes read, fixed by the seed. */
struct Inputs
{
    std::string workload;
    std::uint64_t seed = 0;
    bool shrink = false;
    std::size_t epochs = 0;      ///< anytime_eqsat epochs per term
    std::size_t nodeCap = 0;     ///< anytime_eqsat final node cap
    std::vector<GraphInput> graphs; ///< suites: the graphs
    std::vector<TermInput> terms;   ///< anytime_eqsat: the seed terms
    std::vector<double> loadMs;     ///< per datasets call
    std::vector<double> heuristicMs; ///< per reference extraction
    std::string error; ///< non-empty when set-up itself failed a check

    /** The graphs the per-layer replays run on: the suite graphs, or
     *  each anytime term's final-epoch export. */
    std::vector<const GraphInput*> layerGraphs() const;
    /** Fingerprint over every input graph and reference cost. */
    std::uint64_t fingerprint() const;
};

/** Generates the inputs of `workload` from `seed` and runs the
 *  heuristic+ references; every reference is validated. */
Inputs setUp(const std::string& workload, std::uint64_t seed, bool shrink);

/** Epoch kinds of the anytime loop, from the counter deltas. */
enum class EpochKind { Cold, Identity, Patch, Rerecord };
const char* toString(EpochKind kind);

/** One extraction call of a pass. */
struct CallRecord
{
    const GraphInput* input = nullptr;
    double ms = 0.0;
    double cost = 0.0;
    std::size_t largestScc = 0;
    std::size_t iterations = 0;
    double lossMs = 0.0;
    double gradientMs = 0.0;
    double samplingMs = 0.0;
    EpochKind kind = EpochKind::Cold;
    double costRatio = 0.0; ///< SmoothE / heuristic+ (0: undefined)
    std::uint64_t hash = 0; ///< (graph, selection, cost)
    bool failed = false;
};

/** One timed pass over a workload's inputs. */
struct PassResult
{
    double wallSeconds = 0.0; ///< timed window only (checks excluded)
    /** Wall and CPU seconds of each timed window, in order: the same
     *  windows time the same work in every pass. */
    std::vector<double> wallLaps;
    std::vector<double> cpuLaps;
    double timeToTargetSeconds = 0.0;
    std::vector<CallRecord> calls;
    std::vector<double> eqsatMs;      ///< per epoch
    std::vector<double> eqsatMatches; ///< per epoch
    std::vector<double> exportMs;     ///< per epoch
    std::vector<double> dirtyClasses; ///< per epoch
    /** anytime_eqsat, per term: time to target (loop time if never). */
    std::vector<double> termTimeToTarget;
    std::vector<bool> termReached;
    std::vector<std::string> errors;  ///< rejected calls, described

    std::uint64_t fingerprint() const;
};

/** Runs one pass; correctness checks run outside the timed window. */
PassResult runPass(const Inputs& inputs);

/** Extracts the smallest input once, untimed, so lazy set-up (pool
 *  threads, page faults, dispatch caches) is paid before timing. */
void warmUp(const Inputs& inputs);

/** Structural fingerprint of an e-graph (ops, children, costs, root). */
std::uint64_t graphHash(const eg::EGraph& graph);

} // namespace perfbench

#endif // SMOOTHE_PERFBENCH_WORKLOADS_HPP
