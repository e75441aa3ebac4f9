// Integration tests for the DGNN engines: exactness of the concurrent
// engine vs the reference, skipping behaviour, op accounting.
#include <gtest/gtest.h>

#include <string>

#include "graph/datasets.hpp"
#include "nn/engine.hpp"
#include "nn/gcn.hpp"
#include "param_names.hpp"
#include "tensor/ops.hpp"

namespace tagnn {
namespace {

struct Scenario {
  DynamicGraph g;
  DgnnWeights w;
};

Scenario make(const std::string& model, const std::string& dataset,
           double scale = 0.15, std::size_t snaps = 6) {
  DynamicGraph g = datasets::load(dataset, scale, snaps);
  ModelConfig cfg = ModelConfig::preset(model);
  DgnnWeights w = DgnnWeights::init(cfg, g.feature_dim(), 99);
  return {std::move(g), std::move(w)};
}

class EngineExactness
    : public ::testing::TestWithParam<std::tuple<const char*, const char*>> {
};

TEST_P(EngineExactness, ConcurrentWithoutSkipMatchesReferenceBitExact) {
  const auto [model, dataset] = GetParam();
  const Scenario s = make(model, dataset);
  const EngineResult ref = ReferenceEngine().run(s.g, s.w);

  EngineOptions opts;
  opts.cell_skip = false;  // exact mode: GNN reuse only
  opts.window_size = 3;
  const EngineResult con = ConcurrentEngine(opts).run(s.g, s.w);

  ASSERT_EQ(ref.outputs.size(), con.outputs.size());
  for (std::size_t t = 0; t < ref.outputs.size(); ++t) {
    EXPECT_EQ(max_abs_diff(ref.outputs[t], con.outputs[t]), 0.0f)
        << model << "/" << dataset << " snapshot " << t;
  }
  EXPECT_EQ(max_abs_diff(ref.final_hidden, con.final_hidden), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndDatasets, EngineExactness,
    ::testing::Values(std::make_tuple("T-GCN", "GT"),
                      std::make_tuple("GC-LSTM", "GT"),
                      std::make_tuple("CD-GCN", "GT"),
                      std::make_tuple("T-GCN", "HP"),
                      std::make_tuple("T-GCN", "EP")),
    test::ModelDatasetName());

TEST(Engine, ReuseReducesGnnWork) {
  const Scenario s = make("T-GCN", "GT");
  EngineOptions opts;
  opts.cell_skip = false;
  const EngineResult con = ConcurrentEngine(opts).run(s.g, s.w);
  EXPECT_GT(con.gnn_counts.gnn_vertex_reused, 0u);
  const EngineResult ref = ReferenceEngine().run(s.g, s.w);
  EXPECT_LT(con.gnn_counts.gnn_vertex_computed,
            ref.gnn_counts.gnn_vertex_computed);
  EXPECT_LT(con.gnn_counts.macs, ref.gnn_counts.macs);
}

TEST(Engine, ReuseReducesFeatureTraffic) {
  const Scenario s = make("T-GCN", "HP");
  EngineOptions opts;
  opts.cell_skip = false;
  const EngineResult con = ConcurrentEngine(opts).run(s.g, s.w);
  const EngineResult ref = ReferenceEngine().run(s.g, s.w);
  EXPECT_LT(con.total_counts().feature_bytes,
            ref.total_counts().feature_bytes);
}

TEST(Engine, ReferenceHasHighRedundancy) {
  const Scenario s = make("T-GCN", "GT");
  const EngineResult ref = ReferenceEngine().run(s.g, s.w);
  const OpCounts c = ref.total_counts();
  // Paper Fig. 2(c): the snapshot-by-snapshot pattern re-fetches mostly
  // unchanged data; useful fraction below 50 %.
  EXPECT_GT(c.redundant_bytes, 0.0);
  EXPECT_LT(c.useful_fraction(), 0.5);
}

TEST(Engine, ConcurrentHasLowerRedundancy) {
  const Scenario s = make("T-GCN", "GT");
  EngineOptions opts;
  opts.cell_skip = false;
  const EngineResult con = ConcurrentEngine(opts).run(s.g, s.w);
  const EngineResult ref = ReferenceEngine().run(s.g, s.w);
  EXPECT_LT(con.total_counts().redundant_bytes,
            ref.total_counts().redundant_bytes);
}

TEST(Engine, SkippingSkipsAnddelta) {
  const Scenario s = make("T-GCN", "GT");
  EngineOptions opts;  // defaults: skip enabled, thresholds ±0.5
  const EngineResult con = ConcurrentEngine(opts).run(s.g, s.w);
  EXPECT_GT(con.rnn_counts.rnn_skip, 0u);
  EXPECT_GT(con.rnn_counts.rnn_full, 0u);
  const EngineResult ref = ReferenceEngine().run(s.g, s.w);
  EXPECT_LT(con.rnn_counts.rnn_full, ref.rnn_counts.rnn_full);
}

TEST(Engine, SkippingIntroducesBoundedError) {
  const Scenario s = make("T-GCN", "GT");
  const EngineResult ref = ReferenceEngine().run(s.g, s.w);
  EngineOptions opts;
  const EngineResult con = ConcurrentEngine(opts).run(s.g, s.w);
  const float err = max_abs_diff(ref.final_hidden, con.final_hidden);
  EXPECT_GT(err, 0.0f);   // it is an approximation
  EXPECT_LT(err, 0.75f);  // ...but h stays in a tanh-bounded regime
}

TEST(Engine, TighterThresholdsGiveSmallerError) {
  const Scenario s = make("T-GCN", "GT");
  const EngineResult ref = ReferenceEngine().run(s.g, s.w);
  EngineOptions loose;
  loose.thresholds = {-0.9f, 0.1f};  // aggressive skipping
  EngineOptions tight;
  tight.thresholds = {0.6f, 0.95f};  // conservative
  const float err_loose = max_abs_diff(
      ref.final_hidden, ConcurrentEngine(loose).run(s.g, s.w).final_hidden);
  const float err_tight = max_abs_diff(
      ref.final_hidden, ConcurrentEngine(tight).run(s.g, s.w).final_hidden);
  EXPECT_LE(err_tight, err_loose);
}

TEST(Engine, WindowSizeOneStillWorks) {
  const Scenario s = make("T-GCN", "GT", 0.1, 4);
  EngineOptions opts;
  opts.window_size = 1;
  opts.cell_skip = false;
  const EngineResult con = ConcurrentEngine(opts).run(s.g, s.w);
  const EngineResult ref = ReferenceEngine().run(s.g, s.w);
  for (std::size_t t = 0; t < ref.outputs.size(); ++t) {
    EXPECT_EQ(max_abs_diff(ref.outputs[t], con.outputs[t]), 0.0f);
  }
}

TEST(Engine, WindowLargerThanGraphClamps) {
  const Scenario s = make("T-GCN", "GT", 0.1, 3);
  EngineOptions opts;
  opts.window_size = 16;
  opts.cell_skip = false;
  const EngineResult con = ConcurrentEngine(opts).run(s.g, s.w);
  EXPECT_EQ(con.snapshots_processed, 3u);
}

TEST(Engine, StoreOutputsOffKeepsFinalOnly) {
  const Scenario s = make("T-GCN", "GT", 0.1, 4);
  EngineOptions opts;
  opts.store_outputs = false;
  const EngineResult con = ConcurrentEngine(opts).run(s.g, s.w);
  EXPECT_TRUE(con.outputs.empty());
  EXPECT_EQ(con.final_hidden.rows(), s.g.num_vertices());
}

TEST(Engine, PhaseSecondsPopulated) {
  const Scenario s = make("T-GCN", "GT");
  const EngineResult con = ConcurrentEngine().run(s.g, s.w);
  EXPECT_GT(con.seconds.gnn, 0.0);
  EXPECT_GT(con.seconds.rnn, 0.0);
  EXPECT_GT(con.seconds.overhead, 0.0);
  EXPECT_GT(con.seconds.total(), 0.0);
}

TEST(Engine, DimensionMismatchThrows) {
  const Scenario s = make("T-GCN", "GT", 0.1, 3);
  DgnnWeights bad = DgnnWeights::init(ModelConfig::preset("T-GCN"),
                                      s.g.feature_dim() + 1, 1);
  EXPECT_THROW(ReferenceEngine().run(s.g, bad), std::logic_error);
  EXPECT_THROW(ConcurrentEngine().run(s.g, bad), std::logic_error);
}

TEST(Gcn, AggregateVertexMeansClosedNeighborhood) {
  Snapshot snap;
  snap.graph = CsrGraph::from_edges(3, {{0, 1}, {0, 2}});
  snap.features = Matrix(3, 2);
  snap.features(0, 0) = 3.0f;
  snap.features(1, 0) = 6.0f;
  snap.features(2, 0) = 9.0f;
  snap.present.assign(3, true);
  std::vector<float> out(2);
  aggregate_vertex(snap, snap.features, 0, out);
  EXPECT_FLOAT_EQ(out[0], 6.0f);  // (3+6+9)/3
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  // Absent vertex aggregates to zero.
  snap.graph = CsrGraph::from_edges(3, {});
  snap.present[1] = false;
  aggregate_vertex(snap, snap.features, 1, out);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
}

TEST(Gcn, ComputeMaskLeavesOtherRowsUntouched) {
  Snapshot snap;
  snap.graph = CsrGraph::from_edges(4, {{0, 1}, {1, 0}, {2, 3}, {3, 2}});
  snap.features = Matrix(4, 3);
  snap.features.fill(1.0f);
  snap.present.assign(4, true);
  Rng rng(1);
  const Matrix w = Matrix::random(3, 2, rng, 1.0f);
  Matrix out(4, 2);
  out.fill(-7.0f);
  std::vector<bool> compute{true, false, true, false};
  GcnForwardOptions opts;
  opts.compute = &compute;
  OpCounts counts;
  gcn_layer_forward(snap, snap.features, w, opts, out, counts);
  EXPECT_EQ(out(1, 0), -7.0f);
  EXPECT_EQ(out(3, 1), -7.0f);
  EXPECT_NE(out(0, 0), -7.0f);
  EXPECT_EQ(counts.gnn_vertex_computed, 2u);
}

}  // namespace
}  // namespace tagnn
