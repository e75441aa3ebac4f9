// Tests for the incremental sliding-window classifier: bit-equality
// against classify_window over whole traces, and the incrementality
// property (slides touch far fewer vertices than rebuilds).
#include <gtest/gtest.h>

#include "graph/datasets.hpp"
#include "graph/incremental.hpp"
#include "param_names.hpp"

namespace tagnn {
namespace {

void expect_equal(const WindowClassification& a,
                  const WindowClassification& b, SnapshotId start) {
  ASSERT_EQ(a.clazz.size(), b.clazz.size());
  for (VertexId v = 0; v < a.clazz.size(); ++v) {
    ASSERT_EQ(a.clazz[v], b.clazz[v]) << "start " << start << " v" << v;
    ASSERT_EQ(a.feature_stable[v], b.feature_stable[v]) << "v" << v;
    ASSERT_EQ(a.topo_stable[v], b.topo_stable[v]) << "v" << v;
  }
}

class IncrementalSweep
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(IncrementalSweep, SlidingMatchesFullClassification) {
  const auto [ds, k] = GetParam();
  const DynamicGraph g = datasets::load(ds, 0.1, 8);
  IncrementalClassifier inc(g, static_cast<SnapshotId>(k));
  for (SnapshotId s = 0; s + k <= g.num_snapshots(); ++s) {
    const WindowClassification& got = inc.advance(s);
    const WindowClassification want =
        classify_window(g, {s, static_cast<SnapshotId>(k)});
    expect_equal(got, want, s);
  }
}

TEST_P(IncrementalSweep, RandomJumpsMatchToo) {
  const auto [ds, k] = GetParam();
  const DynamicGraph g = datasets::load(ds, 0.1, 8);
  IncrementalClassifier inc(g, static_cast<SnapshotId>(k));
  const SnapshotId max_start =
      static_cast<SnapshotId>(g.num_snapshots() - k);
  for (const SnapshotId s :
       {SnapshotId{0}, max_start, SnapshotId{1}, max_start / 2}) {
    const WindowClassification& got = inc.advance(s);
    const WindowClassification want =
        classify_window(g, {s, static_cast<SnapshotId>(k)});
    expect_equal(got, want, s);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndWindows, IncrementalSweep,
    ::testing::Combine(::testing::Values("HP", "GT", "EP"),
                       ::testing::Values(2, 3, 4)),
    test::DatasetWindowName());

TEST(Incremental, SlideTouchesFewVertices) {
  const DynamicGraph g = datasets::load("HP", 0.2, 8);
  IncrementalClassifier inc(g, 4);
  inc.advance(0);
  EXPECT_EQ(inc.last_reclassified(), g.num_vertices());  // rebuild
  inc.advance(1);
  EXPECT_LT(inc.last_reclassified(), g.num_vertices());  // incremental
  EXPECT_GT(inc.last_reclassified(), 0u);
}

TEST(Incremental, RepeatedAdvanceToSameStartIsStable) {
  const DynamicGraph g = datasets::load("GT", 0.1, 6);
  IncrementalClassifier inc(g, 3);
  const auto a = inc.advance(2).clazz;
  const auto b = inc.advance(2).clazz;
  EXPECT_EQ(a, b);
}

TEST(Incremental, WindowBeyondEndThrows) {
  const DynamicGraph g = datasets::load("GT", 0.1, 5);
  IncrementalClassifier inc(g, 4);
  EXPECT_THROW(inc.advance(2), std::logic_error);
  EXPECT_THROW(IncrementalClassifier(g, 6), std::logic_error);
}

TEST(Incremental, WindowLengthOneNeverSeesChanges) {
  const DynamicGraph g = datasets::load("GT", 0.1, 5);
  IncrementalClassifier inc(g, 1);
  for (SnapshotId s = 0; s < g.num_snapshots(); ++s) {
    const auto& cls = inc.advance(s);
    // A single-snapshot window only flags vertices absent at s.
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (g.snapshot(s).present[v]) {
        EXPECT_EQ(cls.clazz[v], VertexClass::kUnaffected);
      } else {
        EXPECT_EQ(cls.clazz[v], VertexClass::kAffected);
      }
    }
  }
}

}  // namespace
}  // namespace tagnn
