#include "bench.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>

namespace perfbench {

// Why each workload exists is recorded in BENCHMARK.json and
// perfbench/README.md. The serving tenants are sized so that the fixed
// rate (200/s) sits below the knee of every workload on a 4-vCPU host.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"ml-cdgcn", "ML", "CD-GCN", 1.0, 0.026,
       {"ML", "CD-GCN", 0.4}},
      {"fk-tgcn", "FK", "T-GCN", 0.25, 0.020,
       {"FK", "T-GCN", 0.05}},
      {"serve-mixed", "HP", "T-GCN", 0.5, 0.0043,
       {"HP", "T-GCN", 0.5}},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
