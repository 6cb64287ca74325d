/**
 * @file
 * Per-layer replays for traced runs: each layer is timed from outside,
 * around the benchmark's own calls into that module's public functions,
 * on the workload's own graphs.
 */

#ifndef SMOOTHE_PERFBENCH_LAYERS_HPP
#define SMOOTHE_PERFBENCH_LAYERS_HPP

#include <map>
#include <string>

#include "workloads.hpp"

namespace perfbench {

/** Metric name -> value, in the units the names document. */
using LayerMetrics = std::map<std::string, double>;

/**
 * Replays the sampler, autodiff, tensor and thread-pool layers on every
 * graph of `inputs.layerGraphs()` and returns their per-layer metrics.
 * Random parameters are drawn from `seed`. The thread-pool replay runs
 * at min(4, nproc) workers and restores the pool size afterwards.
 */
LayerMetrics replayLayers(const Inputs& inputs, std::uint64_t seed);

} // namespace perfbench

#endif // SMOOTHE_PERFBENCH_LAYERS_HPP
