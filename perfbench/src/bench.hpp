// Shared types of the repository benchmark: workload definitions, the
// run configuration, and the outcome every phase adds its metrics and
// output checks to.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// The two serving tenants of one workload (serve_bench.cpp drives them).
struct ServeSpec {
  std::string dataset;
  std::string model;
  double scale = 0.5;
};

struct Workload {
  std::string name;
  std::string dataset;
  std::string model;
  double scale = 1.0;
  /// Reference time of the calibration pass over this workload's graph
  /// (its median on a 4-vCPU KVM guest): host-normalised throughput is
  /// expressed in snapshots/s at this calibration speed.
  double calib_ref_s = 0.01;
  ServeSpec serve;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Which output the corruption self-test flips before it is checked.
enum class Corrupt { kNone, kEngine, kAccel, kServe };

struct RunConfig {
  Workload wl;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Corrupt corrupt = Corrupt::kNone;
  /// Where the traced run writes its spans (empty = nowhere).
  std::string spans_path;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct Outcome {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Counts one checked output; a false `ok` is a failure and is
  /// reported on stderr with `what`.
  void check(bool ok, const std::string& what);
  void e2e(const std::string& name, double v, const std::string& unit) {
    end_to_end[name] = {v, unit};
  }
  void layer(const std::string& name, double v, const std::string& unit) {
    per_layer[name] = {v, unit};
  }
};

/// Seconds on the steady clock since an arbitrary epoch.
double now_s();

/// Process peak resident set size in MiB.
double peak_rss_mb();

}  // namespace perfbench
