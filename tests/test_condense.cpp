// Tests for the Condense Unit model and the sparse RNN delta path.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "nn/condense.hpp"
#include "nn/rnn.hpp"

namespace tagnn {
namespace {

TEST(Condense, PacksOnlyNonZeroLanes) {
  std::vector<float> x{0.0f, 1.5f, 0.0f, -2.0f, 0.0f};
  const CondensedVector c = condense(x);
  ASSERT_EQ(c.nnz(), 2u);
  EXPECT_EQ(c.dim, 5u);
  EXPECT_FLOAT_EQ(c.values[0], 1.5f);
  EXPECT_EQ(c.addresses[0], 1u);
  EXPECT_FLOAT_EQ(c.values[1], -2.0f);
  EXPECT_EQ(c.addresses[1], 3u);
  EXPECT_DOUBLE_EQ(c.density(), 0.4);
}

TEST(Condense, ThresholdDropsSmallLanes) {
  std::vector<float> x{0.05f, 0.5f, -0.01f};
  const CondensedVector c = condense(x, 0.1f);
  ASSERT_EQ(c.nnz(), 1u);
  EXPECT_FLOAT_EQ(c.values[0], 0.5f);
}

TEST(Condense, ExpandRoundTrips) {
  Rng rng(1);
  std::vector<float> x(32, 0.0f);
  for (int i = 0; i < 10; ++i) x[rng.next_below(32)] = rng.normal();
  const std::vector<float> back = expand(condense(x));
  EXPECT_EQ(back, x);
}

TEST(Condense, DeltaFoldsIntoApplied) {
  std::vector<float> cur{1.0f, 2.0f, 3.0f};
  std::vector<float> applied{1.0f, 1.5f, 3.001f};
  const CondensedVector d = condense_delta(cur, applied, 0.01f);
  ASSERT_EQ(d.nnz(), 1u);  // only lane 1 moved more than the threshold
  EXPECT_FLOAT_EQ(d.values[0], 0.5f);
  EXPECT_EQ(d.addresses[0], 1u);
  EXPECT_FLOAT_EQ(applied[1], 2.0f);     // folded
  EXPECT_FLOAT_EQ(applied[2], 3.001f);   // below threshold: untouched
}

TEST(Condense, EmptyVector) {
  const CondensedVector c = condense(std::vector<float>{});
  EXPECT_EQ(c.nnz(), 0u);
  EXPECT_EQ(c.dim, 0u);
  EXPECT_TRUE(expand(c).empty());
}

// dense_delta is condense_delta's dense twin: same keep rule (strict
// |d| > threshold, NaN never kept, -0.0 never kept), same folding into
// `applied`, same count — at every length, so the vectorised body and
// its scalar tail are both exercised.
TEST(Condense, DenseDeltaMatchesCondenseDelta) {
  Rng rng(11);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const float threshold : {0.0f, 0.25f}) {
    for (std::size_t len = 1; len <= 67; ++len) {
      std::vector<float> cur(len), applied(len);
      for (std::size_t i = 0; i < len; ++i) {
        applied[i] = rng.normal();
        switch ((i + len) % 6) {
          case 0:  // |d| exactly at the threshold: dropped
            applied[i] = 1.0f;
            cur[i] = 1.0f + threshold;
            break;
          case 1:  // NaN drift: dropped
            cur[i] = nan;
            break;
          case 2:  // negative-zero drift: dropped
            cur[i] = -0.0f;
            applied[i] = 0.0f;
            break;
          case 3:  // unchanged lane
            cur[i] = applied[i];
            break;
          default:  // ordinary drift, kept or dropped by size
            cur[i] = applied[i] + rng.normal();
            break;
        }
      }
      std::vector<float> applied_sparse = applied;
      std::vector<float> applied_dense = applied;
      const CondensedVector want =
          condense_delta(cur, applied_sparse, threshold);
      std::vector<float> out(len, 1.0f);
      const std::size_t nnz = dense_delta(cur, applied_dense, threshold, out);

      EXPECT_EQ(nnz, want.nnz()) << "len " << len;
      EXPECT_EQ(std::memcmp(applied_sparse.data(), applied_dense.data(),
                            len * sizeof(float)),
                0)
          << "len " << len;
      const std::vector<float> expanded = expand(want);  // unkept: +0.0
      EXPECT_EQ(std::memcmp(expanded.data(), out.data(), len * sizeof(float)),
                0)
          << "len " << len << " threshold " << threshold;
    }
  }
}

class SparseDenseEquivalence : public ::testing::TestWithParam<RnnKind> {};

TEST_P(SparseDenseEquivalence, SparseDeltaMatchesDenseDelta) {
  ModelConfig cfg;
  cfg.name = "test";
  cfg.gnn_hidden = 10;
  cfg.rnn = GetParam();
  cfg.rnn_hidden = 7;
  const DgnnWeights w = DgnnWeights::init(cfg, 10, 3);
  const RnnCell cell(w);

  Rng rng(4);
  std::vector<float> x(cell.input_dim());
  for (auto& e : x) e = rng.normal();
  std::vector<float> hd(cell.hidden(), 0.0f), cd(cell.cell_state_dim(), 0.0f),
      cached(cell.cache_dim(), 0.0f);
  std::vector<float> hs = hd, cs = cd, caches = cached;
  OpCounts counts;
  cell.full_update(x, hd, cd, hd, cd, cached, counts);
  cell.full_update(x, hs, cs, hs, cs, caches, counts);

  // A sparse delta: two input lanes, one hidden lane.
  std::vector<float> dx(cell.input_dim(), 0.0f), dh(cell.hidden(), 0.0f);
  dx[2] = 0.3f;
  dx[7] = -0.1f;
  dh[1] = 0.05f;
  OpCounts ca, cb;
  cell.delta_update(dx, dh, hd, cd, hd, cd, cached, ca);
  cell.delta_update(condense(dx), condense(dh), hs, cs, hs, cs, caches, cb);

  for (std::size_t j = 0; j < hd.size(); ++j) {
    EXPECT_FLOAT_EQ(hd[j], hs[j]) << "j=" << j;
  }
  EXPECT_EQ(cached, caches);
  EXPECT_DOUBLE_EQ(ca.macs, cb.macs);
  EXPECT_DOUBLE_EQ(ca.delta_nnz, cb.delta_nnz);
}

INSTANTIATE_TEST_SUITE_P(Kinds, SparseDenseEquivalence,
                         ::testing::Values(RnnKind::kLstm, RnnKind::kGru));

}  // namespace
}  // namespace tagnn
