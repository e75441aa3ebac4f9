#include "nn/condense.hpp"

#include <cmath>

#include "common/check.hpp"

namespace tagnn {

CondensedVector condense(std::span<const float> x, float threshold) {
  CondensedVector c;
  c.dim = x.size();
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::fabs(x[i]) > threshold) {
      c.values.push_back(x[i]);
      c.addresses.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return c;
}

CondensedVector condense_delta(std::span<const float> cur,
                               std::span<float> applied, float threshold) {
  CondensedVector c;
  condense_delta(cur, applied, threshold, c);
  return c;
}

void condense_delta(std::span<const float> cur, std::span<float> applied,
                    float threshold, CondensedVector& out) {
  TAGNN_CHECK(cur.size() == applied.size());
  out.values.clear();
  out.addresses.clear();
  out.dim = cur.size();
  for (std::size_t i = 0; i < cur.size(); ++i) {
    const float d = cur[i] - applied[i];
    if (d > threshold || d < -threshold) {
      out.values.push_back(d);
      out.addresses.push_back(static_cast<std::uint32_t>(i));
      applied[i] = cur[i];
    }
  }
}

namespace {

// dense_delta's lane loop. The keep test is a non-short-circuit `|`
// and both stores are selects, so with the restrict-qualified rows the
// loop has no branch and no loop-carried dependence but the count.
std::uint32_t dense_delta_lanes(const float* __restrict cur,
                                float* __restrict applied, float threshold,
                                float* __restrict out, std::size_t n) {
  std::uint32_t nnz = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float d = cur[i] - applied[i];
    const bool keep = (d > threshold) | (d < -threshold);
    out[i] = keep ? d : 0.0f;
    applied[i] = keep ? cur[i] : applied[i];
    nnz += keep;
  }
  return nnz;
}

}  // namespace

std::size_t dense_delta(std::span<const float> cur, std::span<float> applied,
                        float threshold, std::span<float> out) {
  TAGNN_CHECK(cur.size() == applied.size() && cur.size() == out.size());
  // Fixed four-lane steps (one SSE vector) vectorise under -O2's cheap
  // cost model as well as -O3's; the remainder runs the same loop.
  constexpr std::size_t kStep = 4;
  const std::size_t n = cur.size();
  std::size_t nnz = 0;
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    nnz += dense_delta_lanes(cur.data() + i, applied.data() + i, threshold,
                             out.data() + i, kStep);
  }
  return nnz + dense_delta_lanes(cur.data() + i, applied.data() + i,
                                 threshold, out.data() + i, n - i);
}

std::vector<float> expand(const CondensedVector& c) {
  TAGNN_CHECK(c.values.size() == c.addresses.size());
  std::vector<float> out(c.dim, 0.0f);
  for (std::size_t i = 0; i < c.values.size(); ++i) {
    TAGNN_CHECK(c.addresses[i] < c.dim);
    out[c.addresses[i]] = c.values[i];
  }
  return out;
}

}  // namespace tagnn
