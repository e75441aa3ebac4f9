// Serving phase: an in-process ServeCore driven by one open-loop
// generator thread over a fixed ladder of offered rates. Latency runs
// from each request's scheduled arrival, so a stalled generator or a
// growing queue shows up in it.
#pragma once

#include <memory>

#include "bench.hpp"
#include "serve/server.hpp"

namespace perfbench {

/// Tenant construction and start(): the serving half of set-up.
std::unique_ptr<tagnn::serve::ServeCore> make_serve_core(
    const Workload& wl, std::uint64_t seed);

/// Drives the ladder for about `budget_s` seconds, then checks every
/// reply and each tenant's final digest, and adds the metrics to `out`.
/// Stops `core` before returning.
void run_serve(const RunConfig& cfg, tagnn::serve::ServeCore& core,
               double budget_s, Outcome& out);

}  // namespace perfbench
