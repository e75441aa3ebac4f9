#include "calib.hpp"

#include <algorithm>
#include <vector>

#include "bench.hpp"
#include "graph/dynamic_graph.hpp"

namespace perfbench {
namespace {

volatile float g_sink = 0;

}  // namespace

double calib_slot(const tagnn::DynamicGraph& g) {
  constexpr std::size_t kOut = 32;
  const std::size_t d = g.feature_dim();
  std::vector<float> w(d * kOut), agg(d), out(kOut);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(i % 7) * 0.01f - 0.03f;
  }
  const double t0 = now_s();
  float acc = 0;
  for (tagnn::SnapshotId t = 0; t < g.num_snapshots(); ++t) {
    const tagnn::Snapshot& s = g.snapshot(t);
    for (tagnn::VertexId v = 0; v < s.num_vertices(); ++v) {
      const auto self = s.features.row(v);
      for (std::size_t j = 0; j < d; ++j) agg[j] = self[j];
      for (tagnn::VertexId u : s.graph.neighbors(v)) {
        const auto r = s.features.row(u);
        for (std::size_t j = 0; j < d; ++j) agg[j] += r[j];
      }
      for (std::size_t o = 0; o < kOut; ++o) out[o] = 0;
      for (std::size_t j = 0; j < d; ++j) {
        const float* wr = w.data() + j * kOut;
        for (std::size_t o = 0; o < kOut; ++o) out[o] += agg[j] * wr[o];
      }
      acc += out[v % kOut];
    }
  }
  g_sink = acc;
  return now_s() - t0;
}

double triad_gbs() {
  const std::size_t n = std::size_t{1} << 21;
  std::vector<float> a(n, 0.0f), b(n, 1.0f), c(n, 2.0f);
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + 0.5f * c[i];
    const double dt = now_s() - t0;
    g_sink = a[rep];
    best = std::max(best, 12.0 * static_cast<double>(n) / dt / 1e9);
  }
  return best;
}

}  // namespace perfbench
