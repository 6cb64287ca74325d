/**
 * @file
 * Dataset generator CLI: materializes any of the seven e-graph families
 * (Table 1) as extraction-gym-compatible JSON files, so external
 * extractors can be compared against this repo's on identical inputs.
 *
 * Usage:
 *   egraph_gen --family rover [--scale 0.1] [--seed 2025] [--out DIR]
 *   egraph_gen --all [--scale 0.1] [--out DIR]
 *   egraph_gen --help
 *
 * --validate runs eg::EGraph::checkInvariants() on every generated
 * graph and fails the run on the first unhealthy one.
 */

#include <cstdio>
#include <string>

#include "datasets/registry.hpp"
#include "egraph/serialize.hpp"
#include "obs/cli.hpp"
#include "util/args.hpp"

namespace {

/** The usage text: stdout for --help, stderr on a missing family. */
void
printUsage(std::FILE* out)
{
    std::fprintf(out,
                 "usage: egraph_gen --family NAME | --all "
                 "[--scale S] [--seed N] [--out DIR] [--validate]\n"
                 "families:");
    for (const auto& name : smoothe::datasets::allFamilies())
        std::fprintf(out, " %s", name.c_str());
    std::fprintf(out, "\n");
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace smoothe;
    const util::Args args(argc, argv);
    obs::installCliTelemetry(
        args, obs::toolNameFromArgv0(argc > 0 ? argv[0] : nullptr,
                                     "egraph_gen")
                  .c_str());
    const double scale = args.getDouble("scale", 0.1);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 2025));
    const std::string outDir = args.getString("out", ".");
    const bool all = args.getBool("all", false);
    const std::string family = args.getString("family", "");
    const bool validate = args.getBool("validate", false);
    const bool help = args.getBool("help", false);

    if (obs::reportUnknownFlags(args, "egraph_gen") > 0)
        return 2;

    if (help || (!all && family.empty())) {
        printUsage(help ? stdout : stderr);
        return help ? 0 : 2;
    }

    std::vector<std::string> families;
    if (all)
        families = datasets::allFamilies();
    else
        families.push_back(family);

    for (const std::string& name : families) {
        const auto graphs = datasets::loadFamily(name, scale, seed);
        for (const auto& named : graphs) {
            if (validate) {
                if (const auto problem = named.graph.checkInvariants()) {
                    std::fprintf(stderr,
                                 "error: generated e-graph %s is "
                                 "corrupt: %s\n",
                                 named.name.c_str(), problem->c_str());
                    return 1;
                }
            }
            const std::string path =
                outDir + "/" + named.name + ".json";
            if (!eg::saveToFile(named.graph, path)) {
                std::fprintf(stderr, "error: cannot write %s\n",
                             path.c_str());
                return 1;
            }
            const auto& stats = named.graph.stats();
            std::printf("%-16s N=%-7zu M=%-7zu d=%.2f -> %s\n",
                        named.name.c_str(), stats.numNodes,
                        stats.numClasses, stats.avgDegree, path.c_str());
        }
    }
    return 0;
}
