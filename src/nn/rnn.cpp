#include "nn/rnn.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <vector>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "tensor/kernel_registry.hpp"
#include "tensor/ops.hpp"

namespace tagnn {

namespace {

// Per-thread tiles of one row block (RnnCell::kBlockRows rows): the two
// gate products and, on the fused condense path, the condensed input
// and recurrent drift rows.
struct BlockTiles {
  std::vector<float> x, h, dx, dh;
};

// Non-zero lanes of one delta row — the lanes dense_delta keeps —
// counted without a data-dependent branch, so the loop vectorises.
std::size_t nonzero_lanes(const float* r, std::size_t d) {
  std::size_t nz = 0;
  for (std::size_t j = 0; j < d; ++j) nz += r[j] != 0.0f ? 1 : 0;
  return nz;
}

}  // namespace

RnnCell::RnnCell(const DgnnWeights& weights)
    : w_(weights),
      kind_(weights.config.rnn),
      dz_(weights.rnn_wx.rows()),
      h_(weights.config.rnn_hidden),
      gates_(weights.gates()) {
  TAGNN_CHECK(w_.rnn_wx.cols() == gates_ * h_);
  TAGNN_CHECK(w_.rnn_wh.rows() == h_ && w_.rnn_wh.cols() == gates_ * h_);
}

std::size_t RnnCell::cache_dim() const {
  return kind_ == RnnKind::kLstm ? 4 * h_ : 6 * h_;
}

std::size_t RnnCell::cell_state_dim() const {
  return kind_ == RnnKind::kLstm ? h_ : 0;
}

void RnnCell::derive_outputs(std::span<const float> h_prev,
                             std::span<const float> c_prev,
                             std::span<const float> cache,
                             std::span<float> h_out,
                             std::span<float> c_out) const {
  // Gate activations run segment-wise through the batched vec kernels
  // (a per-lane libm call here would dominate the whole engine). The
  // thread-local staging buffer makes the per-row hot paths
  // allocation-free after the first call.
  const kernels::VecKernels vk = kernels::registry().vec();
  thread_local std::vector<float> buf;
  if (kind_ == RnnKind::kLstm) {
    // cache = [i | f | g | o] pre-activations (x-part + h-part + bias).
    buf.resize(5 * h_);
    float* ia = buf.data();
    float* fa = ia + h_;
    float* ga = fa + h_;
    float* oa = ga + h_;
    float* tc = oa + h_;
    vk.sigmoid_n(cache.data(), 2 * h_, ia);  // i and f are contiguous
    vk.tanh_n(cache.data() + 2 * h_, h_, ga);
    vk.sigmoid_n(cache.data() + 3 * h_, h_, oa);
    for (std::size_t j = 0; j < h_; ++j) {
      c_out[j] = fa[j] * c_prev[j] + ia[j] * ga[j];
    }
    vk.tanh_n(c_out.data(), h_, tc);
    for (std::size_t j = 0; j < h_; ++j) h_out[j] = oa[j] * tc[j];
  } else {
    // cache = [x-part(z r n) | h-part(z r n)].
    buf.resize(3 * h_);
    float* za = buf.data();  // z and r pre-activations, then gates
    float* na = za + 2 * h_;
    const float* xp = cache.data();
    const float* hp = cache.data() + 3 * h_;
    for (std::size_t j = 0; j < 2 * h_; ++j) za[j] = xp[j] + hp[j];
    vk.sigmoid_n(za, 2 * h_, za);
    const float* ra = za + h_;
    for (std::size_t j = 0; j < h_; ++j) {
      na[j] = xp[2 * h_ + j] + ra[j] * hp[2 * h_ + j];
    }
    vk.tanh_n(na, h_, na);
    for (std::size_t j = 0; j < h_; ++j) {
      h_out[j] = (1.0f - za[j]) * h_prev[j] + za[j] * na[j];
    }
  }
}

void RnnCell::full_update(std::span<const float> x,
                          std::span<const float> h_prev,
                          std::span<const float> c_prev,
                          std::span<float> h_out, std::span<float> c_out,
                          std::span<float> cache, OpCounts& counts) const {
  TAGNN_CHECK(x.size() == dz_ && h_prev.size() == h_);
  TAGNN_CHECK(cache.size() == cache_dim());
  const std::size_t gh = gates_ * h_;
  std::vector<float> xpart(gh), hpart(gh);
  // x-part: x * Wx + b (accumulating gemv on top of the bias row).
  for (std::size_t j = 0; j < gh; ++j) xpart[j] = w_.rnn_b(0, j);
  ops::gemv(x, w_.rnn_wx, xpart, {.accumulate = true});
  // h-part: h_prev * Wh.
  ops::gemv(h_prev, w_.rnn_wh, hpart);

  if (kind_ == RnnKind::kLstm) {
    for (std::size_t j = 0; j < gh; ++j) cache[j] = xpart[j] + hpart[j];
  } else {
    for (std::size_t j = 0; j < gh; ++j) {
      cache[j] = xpart[j];
      cache[gh + j] = hpart[j];
    }
  }
  derive_outputs(h_prev, c_prev, cache, h_out, c_out);

  counts.macs += full_update_macs();
  counts.activations += static_cast<double>(gh + h_);
  counts.feature_bytes += static_cast<double>(dz_ + h_) * 4.0;
  // Weight traffic is charged once per snapshot by the engine (the gate
  // matrices fit in on-chip/SRAM working sets), not per vertex.
  counts.output_bytes += static_cast<double>(h_ + cell_state_dim()) * 4.0;
  ++counts.rnn_full;
}

// The batched paths walk their row list in blocks of kBlockRows. Per
// block, `source` points ax/ah at the A rows of the two gate products
// (z/h rows for a full update, delta rows for a delta update —
// condensing them into the block's tiles first on the fused path) and
// returns the block's kept (non-zero) delta lanes, or on the
// matrix-input path enough of them to show the block is dense. Both
// GEMMs then write L1-resident tiles through ops::gemm_rows, and the
// tiles are folded into the cache rows before h/c are derived. Blocks
// are independent (each reads and writes only its own rows), so they
// run in parallel; a block's GEMMs read its h rows before any of them
// is overwritten.
//
// A delta block with few kept lanes (see kSparseBlockShare) zero-fills
// its tiles and accumulates into them through the zero-skipping
// micro_* kernels, so it costs in proportion to its kept lanes; a
// dense block keeps the register-tile kernels. Both give the same bits
// as long as the weights are finite: a register tile starts at +0.0
// and adds every k term, the skip path starts at +0.0 and leaves out
// only terms whose A value is zero, and x + (+-0.0) == x for every
// accumulator a +0.0-started sum can reach. A 0 * Inf weight would
// make the tile NaN where the skip path is not.
template <class Source>
std::size_t RnnCell::update_blocks(std::span<const VertexId> rows, bool full,
                                   Matrix& h, Matrix& c, Matrix& cache,
                                   const Source& source) const {
  const std::size_t gh = gates_ * h_;
  const float* bias = w_.rnn_b.data();
  const std::size_t blocks = (rows.size() + kBlockRows - 1) / kBlockRows;
  std::mutex mu;
  std::size_t total_kept = 0;  // guarded by mu
  parallel_for(0, blocks, [&](std::size_t b0, std::size_t b1) {
    thread_local BlockTiles t;
    t.x.resize(kBlockRows * gh);
    t.h.resize(kBlockRows * gh);
    std::size_t kept = 0;
    for (std::size_t b = b0; b < b1; ++b) {
      const std::span<const VertexId> blk = rows.subspan(
          b * kBlockRows, std::min(kBlockRows, rows.size() - b * kBlockRows));
      const std::size_t m = blk.size();
      const float* ax[kBlockRows];
      const float* ah[kBlockRows];
      float* xt[kBlockRows];
      float* ht[kBlockRows];
      const std::size_t blk_kept = source(blk, t, ax, ah);
      kept += blk_kept;
      const bool sparse =
          !full && kSparseBlockShare * blk_kept <= m * (dz_ + h_);
      for (std::size_t i = 0; i < m; ++i) {
        xt[i] = t.x.data() + i * gh;
        ht[i] = t.h.data() + i * gh;
        if (full) std::copy(bias, bias + gh, xt[i]);
        if (sparse) {
          std::fill(xt[i], xt[i] + gh, 0.0f);
          std::fill(ht[i], ht[i] + gh, 0.0f);
        }
      }
      // A full update's x-part accumulates onto the bias: the same
      // bias-first ascending-k order as the per-vertex gemv path.
      ops::gemm_rows({ax, m}, w_.rnn_wx, {xt, m},
                     /*accumulate=*/full || sparse);
      ops::gemm_rows({ah, m}, w_.rnn_wh, {ht, m}, /*accumulate=*/sparse);
      for (std::size_t i = 0; i < m; ++i) {
        const auto v = static_cast<std::size_t>(blk[i]);
        const float* xp = xt[i];
        const float* hp = ht[i];
        float* vc = cache.row(v).data();
        if (kind_ == RnnKind::kLstm) {
          // x- and h-parts share the combined pre-activation vector.
          for (std::size_t j = 0; j < gh; ++j) {
            vc[j] = full ? xp[j] + hp[j] : (vc[j] + xp[j]) + hp[j];
          }
        } else if (full) {
          // GRU keeps the h-part in the upper half of the cache.
          std::copy(xp, xp + gh, vc);
          std::copy(hp, hp + gh, vc + gh);
        } else {
          for (std::size_t j = 0; j < gh; ++j) {
            vc[j] += xp[j];
            vc[gh + j] += hp[j];
          }
        }
        derive_outputs(h.row(v), c.row(v), cache.row(v), h.row(v),
                       c.row(v));
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    total_kept += kept;
  }, /*serial_threshold=*/64 / kBlockRows);
  return total_kept;
}

void RnnCell::full_update_rows(const Matrix& z,
                               std::span<const VertexId> rows, Matrix& h,
                               Matrix& c, Matrix& cache,
                               OpCounts& counts) const {
  if (rows.empty()) return;
  const std::size_t gh = gates_ * h_;
  TAGNN_CHECK(z.cols() == dz_ && h.cols() == h_);
  TAGNN_CHECK(cache.cols() == cache_dim());
  update_blocks(rows, /*full=*/true, h, c, cache,
                [&](std::span<const VertexId> blk, BlockTiles&,
                    const float** ax, const float** ah) {
                  for (std::size_t i = 0; i < blk.size(); ++i) {
                    ax[i] = z.row(blk[i]).data();
                    ah[i] = h.row(blk[i]).data();
                  }
                  return std::size_t{0};
                });

  const auto nv = static_cast<double>(rows.size());
  counts.macs += nv * full_update_macs();
  counts.activations += nv * static_cast<double>(gh + h_);
  counts.feature_bytes += nv * static_cast<double>(dz_ + h_) * 4.0;
  counts.output_bytes +=
      nv * static_cast<double>(h_ + cell_state_dim()) * 4.0;
  counts.rnn_full += rows.size();
}

void RnnCell::delta_update(std::span<const float> dx,
                           std::span<const float> dh,
                           std::span<const float> h_prev,
                           std::span<const float> c_prev,
                           std::span<float> h_out, std::span<float> c_out,
                           std::span<float> cache, OpCounts& counts) const {
  TAGNN_CHECK(dx.size() == dz_ && dh.size() == h_);
  TAGNN_CHECK(cache.size() == cache_dim());
  const std::size_t gh = gates_ * h_;
  const kernels::VecKernels vk = kernels::registry().vec();
  // Condensed non-zero input-delta columns update the x-part in place.
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < dz_; ++i) {
    const float di = dx[i];
    if (di == 0.0f) continue;
    ++nnz;
    vk.axpy(w_.rnn_wx.data() + i * gh, di, gh, cache.data());
  }
  // Condensed recurrent-delta columns refresh the h-part (for the LSTM
  // the x- and h-parts share one combined pre-activation vector; the
  // GRU keeps the h-part in the upper half of the cache).
  float* hpart = kind_ == RnnKind::kLstm ? cache.data() : cache.data() + gh;
  for (std::size_t i = 0; i < h_; ++i) {
    const float di = dh[i];
    if (di == 0.0f) continue;
    ++nnz;
    vk.axpy(w_.rnn_wh.data() + i * gh, di, gh, hpart);
  }
  derive_outputs(h_prev, c_prev, cache, h_out, c_out);

  counts.macs += static_cast<double>(nnz * gh);
  counts.activations += static_cast<double>(gh + h_);
  counts.feature_bytes += static_cast<double>(nnz + h_) * 4.0;
  counts.output_bytes += static_cast<double>(h_ + cell_state_dim()) * 4.0;
  counts.delta_nnz += static_cast<double>(nnz);
  ++counts.rnn_delta;
}

void RnnCell::delta_update_rows(const Matrix& dx, const Matrix& dh,
                                std::span<const VertexId> rows,
                                double total_nnz, Matrix& h, Matrix& c,
                                Matrix& cache, OpCounts& counts) const {
  if (rows.empty()) return;
  TAGNN_CHECK(dx.cols() == dz_ && dh.cols() == h_);
  TAGNN_CHECK(cache.cols() == cache_dim());
  update_blocks(rows, /*full=*/false, h, c, cache,
                [&](std::span<const VertexId> blk, BlockTiles&,
                    const float** ax, const float** ah) {
                  // The count only feeds the sparse-block switch (the
                  // caller charges total_nnz), so it stops once the
                  // block is known to be dense.
                  const std::size_t dense_at =
                      blk.size() * (dz_ + h_) / kSparseBlockShare + 1;
                  std::size_t kept = 0;
                  for (std::size_t i = 0; i < blk.size(); ++i) {
                    ax[i] = dx.row(blk[i]).data();
                    ah[i] = dh.row(blk[i]).data();
                    if (kept < dense_at) {
                      kept += nonzero_lanes(ax[i], dz_) +
                              nonzero_lanes(ah[i], h_);
                    }
                  }
                  return kept;
                });
  charge_delta_rows(rows.size(), total_nnz, counts);
}

void RnnCell::delta_update_rows(const Matrix& z, Matrix& z_applied,
                                Matrix& h_applied, float eps,
                                std::span<const VertexId> rows, Matrix& h,
                                Matrix& c, Matrix& cache,
                                OpCounts& counts) const {
  if (rows.empty()) return;
  TAGNN_CHECK(z.cols() == dz_ && z_applied.cols() == dz_);
  TAGNN_CHECK(h.cols() == h_ && h_applied.cols() == h_);
  TAGNN_CHECK(cache.cols() == cache_dim());
  // Condense Unit: each row's drift since the last applied values is
  // thresholded into the block's tiles (exact zeros mark unchanged
  // lanes) just before the block's GEMMs read it.
  const std::size_t nnz = update_blocks(
      rows, /*full=*/false, h, c, cache,
      [&](std::span<const VertexId> blk, BlockTiles& t, const float** ax,
          const float** ah) {
        t.dx.resize(kBlockRows * dz_);
        t.dh.resize(kBlockRows * h_);
        std::size_t kept = 0;
        for (std::size_t i = 0; i < blk.size(); ++i) {
          const VertexId v = blk[i];
          const std::span<float> dxr(t.dx.data() + i * dz_, dz_);
          const std::span<float> dhr(t.dh.data() + i * h_, h_);
          kept += dense_delta(z.row(v), z_applied.row(v), eps, dxr);
          kept += dense_delta(h.row(v), h_applied.row(v), eps, dhr);
          ax[i] = dxr.data();
          ah[i] = dhr.data();
        }
        return kept;
      });
  charge_delta_rows(rows.size(), static_cast<double>(nnz), counts);
}

// Charged as the Condense Unit computes it: only the kept lanes cost
// MACs/fetch traffic, identical to summing the per-vertex charges.
void RnnCell::charge_delta_rows(std::size_t rows, double total_nnz,
                                OpCounts& counts) const {
  const std::size_t gh = gates_ * h_;
  const auto nv = static_cast<double>(rows);
  counts.macs += total_nnz * static_cast<double>(gh);
  counts.activations += nv * static_cast<double>(gh + h_);
  counts.feature_bytes += (total_nnz + nv * static_cast<double>(h_)) * 4.0;
  counts.output_bytes +=
      nv * static_cast<double>(h_ + cell_state_dim()) * 4.0;
  counts.delta_nnz += total_nnz;
  counts.rnn_delta += rows;
}

void RnnCell::delta_update(const CondensedVector& dx,
                           const CondensedVector& dh,
                           std::span<const float> h_prev,
                           std::span<const float> c_prev,
                           std::span<float> h_out, std::span<float> c_out,
                           std::span<float> cache, OpCounts& counts) const {
  TAGNN_CHECK(dx.dim == dz_ && dh.dim == h_);
  TAGNN_CHECK(cache.size() == cache_dim());
  const std::size_t gh = gates_ * h_;
  const kernels::VecKernels vk = kernels::registry().vec();
  for (std::size_t i = 0; i < dx.values.size(); ++i) {
    vk.axpy(w_.rnn_wx.data() + dx.addresses[i] * gh, dx.values[i], gh,
            cache.data());
  }
  float* hpart = kind_ == RnnKind::kLstm ? cache.data() : cache.data() + gh;
  for (std::size_t i = 0; i < dh.values.size(); ++i) {
    vk.axpy(w_.rnn_wh.data() + dh.addresses[i] * gh, dh.values[i], gh, hpart);
  }
  derive_outputs(h_prev, c_prev, cache, h_out, c_out);

  const std::size_t nnz = dx.nnz() + dh.nnz();
  counts.macs += static_cast<double>(nnz * gh);
  counts.activations += static_cast<double>(gh + h_);
  counts.feature_bytes += static_cast<double>(nnz + h_) * 4.0;
  counts.output_bytes += static_cast<double>(h_ + cell_state_dim()) * 4.0;
  counts.delta_nnz += static_cast<double>(nnz);
  ++counts.rnn_delta;
}

}  // namespace tagnn
