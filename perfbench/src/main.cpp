// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--corrupt engine|accel|serve] [--spans PATH]
//
// Prints one JSON object as the last line of stdout: the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1), whether
// every output check passed, and how many checks were attempted and
// failed. --corrupt flips one output before it is checked, to prove
// the checks are live; the run must then report a failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "engine_bench.hpp"
#include "serve_bench.hpp"
#include "stats.hpp"

namespace {

using namespace perfbench;

constexpr int kSetupReps = 9;

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--corrupt engine|accel|serve] "
               "[--spans PATH]\nworkloads:",
               msg);
  for (const Workload& w : workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

void print_result(const Outcome& out, bool trace) {
  const auto& metrics = trace ? out.per_layer : out.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0' && !v.empty();
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), &end);
      have_seconds = *end == '\0' && cfg.seconds > 0 && cfg.seconds <= 600;
    } else if (a == "--trace") {
      have_trace = v == "0" || v == "1";
      cfg.trace = v == "1";
    } else if (a == "--corrupt") {
      if (v == "engine") {
        cfg.corrupt = Corrupt::kEngine;
      } else if (v == "accel") {
        cfg.corrupt = Corrupt::kAccel;
      } else if (v == "serve") {
        cfg.corrupt = Corrupt::kServe;
      } else {
        return usage("unknown --corrupt target");
      }
    } else if (a == "--spans") {
      cfg.spans_path = v;
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }
  const Workload* wl = find_workload(workload);
  if (wl == nullptr) return usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  cfg.wl = *wl;

  // Every engine call runs on a one-thread global pool: with more
  // threads, wall time on a shared host spreads ~10x more between
  // processes. Serving adds one worker per tenant and the generator.
  tagnn::ScopedGlobalThreadPool pool(1);

  Outcome out;
  // Set-up is repeated and its median reported, so that work moved into
  // set-up shows without one slow repetition deciding the number.
  std::vector<double> setup;
  EngineInputs inputs;
  std::unique_ptr<tagnn::serve::ServeCore> core;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    core.reset();
    const double t0 = now_s();
    inputs = make_engine_inputs(cfg.wl, cfg.seed);
    core = make_serve_core(cfg.wl, cfg.seed);
    setup.push_back(now_s() - t0);
  }
  out.e2e("setup_s", median(setup), "s");

  // Half of the run times the engines, half serves.
  const double engine_s = cfg.seconds / 2;
  run_engines(cfg, inputs, engine_s, out);
  run_serve(cfg, *core, cfg.seconds - engine_s, out);
  core.reset();
  out.e2e("peak_rss_mb", peak_rss_mb(), "MiB");

  for (const auto* metrics : {&out.end_to_end, &out.per_layer}) {
    for (const auto& [name, m] : *metrics) {
      out.check(std::isfinite(m.value), name + " is not finite");
    }
  }
  print_result(out, cfg.trace);
  return out.failed == 0 ? 0 : 1;
}
