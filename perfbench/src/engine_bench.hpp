// Engine phase: ReferenceEngine, ConcurrentEngine and TagnnAccelerator
// timed interleaved in one process, next to the frozen calibration loop,
// with every run's output checked. The traced run adds span replays.
#pragma once

#include "bench.hpp"
#include "graph/dynamic_graph.hpp"
#include "nn/engine.hpp"
#include "nn/weights.hpp"

namespace perfbench {

struct EngineInputs {
  tagnn::DynamicGraph graph;
  tagnn::DgnnWeights weights;
};

/// Dataset generation (seeded through datasets::config(...).seed) and
/// weight initialisation: the engine half of set-up.
EngineInputs make_engine_inputs(const Workload& wl, std::uint64_t seed);

/// EngineOptions defaults (window 4) except store_outputs = false.
tagnn::EngineOptions engine_options();

/// Times the engines for about `budget_s` seconds and adds their
/// metrics and checks to `out`.
void run_engines(const RunConfig& cfg, const EngineInputs& in,
                 double budget_s, Outcome& out);

/// Bitwise equality of two matrices (shape and every float).
bool same_bits(const tagnn::Matrix& a, const tagnn::Matrix& b);

}  // namespace perfbench
