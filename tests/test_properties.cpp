// Property-based sweeps over datasets, window lengths, and seeds:
// invariants that must hold for any input, exercised via parameterized
// gtest suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "graph/affected_subgraph.hpp"
#include "graph/classify.hpp"
#include "graph/datasets.hpp"
#include "graph/formats.hpp"
#include "graph/ocsr.hpp"
#include "nn/engine.hpp"
#include "nn/gcn.hpp"
#include "param_names.hpp"
#include "tagnn/dispatcher.hpp"
#include "tensor/ops.hpp"

namespace tagnn {
namespace {

// ---------- classification + subgraph + O-CSR invariants ----------

class WindowSweep
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(WindowSweep, ClassificationPartitionsVertices) {
  const auto [ds, k] = GetParam();
  const DynamicGraph g = datasets::load(ds, 0.1, 6);
  const Window w{0, static_cast<SnapshotId>(k)};
  const auto cls = classify_window(g, w);
  EXPECT_EQ(cls.count(VertexClass::kUnaffected) +
                cls.count(VertexClass::kStable) +
                cls.count(VertexClass::kAffected),
            g.num_vertices());
}

TEST_P(WindowSweep, UnaffectedNeighborhoodsAreFeatureStable) {
  const auto [ds, k] = GetParam();
  const DynamicGraph g = datasets::load(ds, 0.1, 6);
  const Window w{0, static_cast<SnapshotId>(k)};
  const auto cls = classify_window(g, w);
  const CsrGraph& s0 = g.snapshot(w.start).graph;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!cls.is_unaffected(v)) continue;
    EXPECT_TRUE(cls.feature_stable[v]);
    EXPECT_TRUE(cls.topo_stable[v]);
    for (VertexId u : s0.neighbors(v)) {
      EXPECT_TRUE(cls.feature_stable[u]) << "v" << v << " u" << u;
    }
  }
}

TEST_P(WindowSweep, SubgraphIsComplementOfUnaffected) {
  const auto [ds, k] = GetParam();
  const DynamicGraph g = datasets::load(ds, 0.1, 6);
  const Window w{0, static_cast<SnapshotId>(k)};
  const auto cls = classify_window(g, w);
  const auto sub = extract_affected_subgraph(g, w, cls);
  EXPECT_EQ(sub.size(),
            g.num_vertices() - cls.count(VertexClass::kUnaffected));
}

TEST_P(WindowSweep, OcsrRoundTripsEveryEdgeOfEverySubgraphVertex) {
  const auto [ds, k] = GetParam();
  const DynamicGraph g = datasets::load(ds, 0.1, 6);
  const Window w{0, static_cast<SnapshotId>(k)};
  const auto cls = classify_window(g, w);
  const auto sub = extract_affected_subgraph(g, w, cls);
  const OCsr o = OCsr::build(g, w, cls, sub);
  std::size_t expected_edges = 0;
  for (VertexId v : sub.vertices) {
    for (SnapshotId t = w.start; t < w.end(); ++t) {
      expected_edges += g.snapshot(t).graph.degree(v);
    }
  }
  EXPECT_EQ(o.total_edges(), expected_edges);
  // Timestamps must all lie inside the window.
  for (std::size_t r = 0; r < o.num_sources(); ++r) {
    for (SnapshotId ts : o.timestamps(r)) {
      EXPECT_TRUE(w.contains(ts));
    }
  }
}

TEST_P(WindowSweep, OcsrNeverLargerThanCsrWindow) {
  const auto [ds, k] = GetParam();
  const DynamicGraph g = datasets::load(ds, 0.1, 6);
  const Window w{0, static_cast<SnapshotId>(k)};
  const auto cls = classify_window(g, w);
  const auto sub = extract_affected_subgraph(g, w, cls);
  const OCsr o = OCsr::build(g, w, cls, sub);
  EXPECT_LE(ocsr_stats(o).feature_bytes,
            csr_window_stats(g, w).feature_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndWindows, WindowSweep,
    ::testing::Combine(::testing::Values("HP", "GT", "ML", "EP"),
                       ::testing::Values(2, 3, 4)),
    test::DatasetWindowName());

// ---------- engine exactness across window sizes ----------

class ExactnessWindowSweep : public ::testing::TestWithParam<int> {};

TEST_P(ExactnessWindowSweep, GnnReuseIsLosslessForAnyWindow) {
  const DynamicGraph g = datasets::load("GT", 0.12, 7);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 3);
  const EngineResult ref = ReferenceEngine().run(g, w);
  EngineOptions opts;
  opts.cell_skip = false;
  opts.window_size = static_cast<SnapshotId>(GetParam());
  const EngineResult con = ConcurrentEngine(opts).run(g, w);
  for (std::size_t t = 0; t < ref.outputs.size(); ++t) {
    ASSERT_EQ(max_abs_diff(ref.outputs[t], con.outputs[t]), 0.0f)
        << "window " << GetParam() << " snapshot " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, ExactnessWindowSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 9),
                         ::testing::PrintToStringParamName());

// ---------- concurrent traffic accounting vs a per-edge recount ----------

// The engine charges its GNN-phase feature traffic without walking the
// edges of a fully computed snapshot and compares rows with the previous
// snapshot only where it charges them. The oracle below walks every
// gather of every computed row edge by edge and compares every charged
// row: window-stable rows once per (window, layer), other rows once per
// snapshot, redundant when bitwise equal (==) to the previous
// snapshot's layer input.
struct TrafficTally {
  double feature_bytes = 0;
  double redundant_bytes = 0;
};

TrafficTally recount_gnn_traffic(const DynamicGraph& g, const DgnnWeights& w,
                                 SnapshotId window, bool count_redundancy) {
  const VertexId n = g.num_vertices();
  const auto total = static_cast<SnapshotId>(g.num_snapshots());
  const std::size_t layers = w.config.gnn_layers;
  // Layer inputs per snapshot, computed in full: reuse is lossless, so
  // they equal the engine's activations.
  std::vector<std::vector<Matrix>> in(layers, std::vector<Matrix>(total));
  for (SnapshotId t = 0; t < total; ++t) {
    Matrix x = g.snapshot(t).features;
    for (std::size_t l = 0; l < layers; ++l) {
      in[l][t] = x;
      GcnForwardOptions fwd;
      fwd.relu_output = l + 1 < layers;
      OpCounts unused;
      gcn_layer_forward(g.snapshot(t), in[l][t], w.gnn[l], fwd, x, unused);
    }
  }
  TrafficTally tally;
  for (SnapshotId start = 0; start < total; start += window) {
    const Window win{start, std::min<SnapshotId>(window, total - start)};
    const WindowClassification cls = classify_window(g, win);
    const auto unchanged = unchanged_per_layer(g, win, cls, layers);
    for (std::size_t l = 0; l < layers; ++l) {
      const std::vector<bool>& stable =
          l == 0 ? cls.feature_stable : unchanged[l - 1];
      const std::size_t d_in = in[l][0].cols();
      std::vector<bool> window_seen(n, false);
      for (SnapshotId tk = 0; tk < win.length; ++tk) {
        const SnapshotId t = start + tk;
        std::vector<bool> snap_seen(n, false);
        double rows = 0, redundant = 0;
        auto gather = [&](VertexId u) {
          std::vector<bool>& seen = stable[u] ? window_seen : snap_seen;
          if (seen[u]) return;
          seen[u] = true;
          rows += 1;
          if (!stable[u] && count_redundancy && tk > 0) {
            const auto a = in[l][t].row(u);
            const auto b = in[l][t - 1].row(u);
            if (std::equal(a.begin(), a.end(), b.begin())) redundant += 1;
          }
        };
        for (VertexId v = 0; v < n; ++v) {
          if (tk > 0 && unchanged[l][v]) continue;  // copied, not computed
          gather(v);
          for (const VertexId u : g.snapshot(t).graph.neighbors(v)) gather(u);
        }
        tally.feature_bytes += rows * static_cast<double>(d_in) * 4.0;
        tally.redundant_bytes += redundant * static_cast<double>(d_in) * 4.0;
      }
    }
  }
  return tally;
}

class TrafficRecount
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(TrafficRecount, GnnTrafficMatchesPerEdgeRecount) {
  const auto [ds, k] = GetParam();
  const DynamicGraph g = datasets::load(ds, 0.1, 6);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("CD-GCN"), g.feature_dim(), 3);
  for (const bool count_redundancy : {true, false}) {
    EngineOptions opts;
    opts.window_size = static_cast<SnapshotId>(k);
    opts.count_redundancy = count_redundancy;
    opts.store_outputs = false;
    const EngineResult r = ConcurrentEngine(opts).run(g, w);
    const TrafficTally want =
        recount_gnn_traffic(g, w, opts.window_size, count_redundancy);
    EXPECT_EQ(r.gnn_counts.feature_bytes, want.feature_bytes)
        << "count_redundancy " << count_redundancy;
    EXPECT_EQ(r.gnn_counts.redundant_bytes, want.redundant_bytes)
        << "count_redundancy " << count_redundancy;
    if (!count_redundancy) {
      EXPECT_EQ(r.gnn_counts.redundant_bytes, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndWindows, TrafficRecount,
    ::testing::Combine(::testing::Values("HP", "GT", "ML", "EP", "FK"),
                       ::testing::Values(1, 2, 4)),
    test::DatasetWindowName());

// ---------- dispatcher properties ----------

class DispatcherSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DispatcherSeeds, MakespanBounds) {
  Rng rng(GetParam());
  std::vector<DispatchTask> tasks;
  Cycle total = 0, longest = 0;
  const std::size_t n = 200 + rng.next_below(300);
  for (std::size_t i = 0; i < n; ++i) {
    const Cycle c = 1 + rng.next_below(100);
    tasks.push_back({static_cast<VertexId>(i), c});
    total += c;
    longest = std::max(longest, c);
  }
  for (const std::size_t dcus : {1u, 4u, 16u}) {
    for (const bool balanced : {true, false}) {
      const DispatchResult r = dispatch_tasks(tasks, dcus, balanced);
      // Lower bounds: the longest task, and perfect division.
      EXPECT_GE(r.makespan, longest);
      EXPECT_GE(r.makespan,
                (total + dcus - 1) / dcus);
      EXPECT_LE(r.makespan, total);
      EXPECT_EQ(r.total_work, total);
      if (balanced) {
        // LPT guarantee: within 4/3 of the optimum (≥ ceil(total/m)).
        const double lower = std::max<double>(
            static_cast<double>(longest),
            static_cast<double>(total) / static_cast<double>(dcus));
        EXPECT_LE(static_cast<double>(r.makespan), 4.0 / 3.0 * lower + 1.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatcherSeeds,
                         ::testing::Values(1, 2, 3, 4, 5),
                         ::testing::PrintToStringParamName());

// ---------- similarity-policy monotonicity on the real engine ----------

TEST(Properties, MoreAggressiveSkippingNeverDoesMoreRnnWork) {
  const DynamicGraph g = datasets::load("GT", 0.12, 6);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 3);
  std::size_t prev_full = SIZE_MAX;
  for (const float te : {0.999f, 0.9f, 0.5f, 0.0f}) {
    EngineOptions opts;
    opts.thresholds = {-0.5f, te};
    opts.store_outputs = false;
    const EngineResult r = ConcurrentEngine(opts).run(g, w);
    const std::size_t nonskip = r.rnn_counts.rnn_full + r.rnn_counts.rnn_delta;
    EXPECT_LE(nonskip, prev_full);
    prev_full = nonskip;
  }
}

TEST(Properties, WindowOneHasNoGnnReuse) {
  const DynamicGraph g = datasets::load("GT", 0.12, 5);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 3);
  EngineOptions opts;
  opts.window_size = 1;
  opts.store_outputs = false;
  const EngineResult r = ConcurrentEngine(opts).run(g, w);
  EXPECT_EQ(r.gnn_counts.gnn_vertex_reused, 0u);
}

TEST(Properties, ReusePlusComputeCoversExactlyAllVertexSnapshots) {
  // Reuse is not monotone in the window size (unaffected-across-K
  // shrinks with K while the reuse span grows), but reuse + compute
  // must always partition the (vertex, snapshot, layer) work space.
  const DynamicGraph g = datasets::load("HP", 0.12, 8);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 3);
  for (const SnapshotId k : {1u, 2u, 4u}) {
    EngineOptions opts;
    opts.window_size = k;
    opts.store_outputs = false;
    opts.cell_skip = false;
    const EngineResult r = ConcurrentEngine(opts).run(g, w);
    const std::size_t total_vertex_snapshots =
        g.num_vertices() * g.num_snapshots() * w.config.gnn_layers;
    EXPECT_EQ(r.gnn_counts.gnn_vertex_reused +
                  r.gnn_counts.gnn_vertex_computed,
              total_vertex_snapshots)
        << "window " << k;
    if (k > 1) {
      EXPECT_GT(r.gnn_counts.gnn_vertex_reused, 0u);
    }
  }
}

// ---------- generator statistics across seeds ----------

class GeneratorSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorSeeds, EdgeCountStaysNearTarget) {
  GeneratorConfig cfg;
  cfg.num_vertices = 800;
  cfg.target_edges = 8000;
  cfg.num_snapshots = 6;
  cfg.seed = GetParam();
  const DynamicGraph g = generate_dynamic_graph(cfg);
  for (SnapshotId t = 0; t < g.num_snapshots(); ++t) {
    const double e = static_cast<double>(g.snapshot(t).graph.num_edges());
    EXPECT_GT(e, 0.5 * cfg.target_edges) << "t=" << t;
    EXPECT_LT(e, 1.6 * cfg.target_edges) << "t=" << t;
  }
}

TEST_P(GeneratorSeeds, PresenceConsistentWithEdges) {
  GeneratorConfig cfg;
  cfg.num_vertices = 400;
  cfg.target_edges = 3000;
  cfg.num_snapshots = 6;
  cfg.vertex_churn = 0.02;  // force presence churn
  cfg.seed = GetParam();
  const DynamicGraph g = generate_dynamic_graph(cfg);
  EXPECT_NO_THROW(g.validate());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeeds,
                         ::testing::Values(1, 7, 42, 1234),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace tagnn
