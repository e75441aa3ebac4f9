// RNN cells (LSTM and GRU) with full and delta update paths.
//
// The delta path implements the paper's "similarity computation mode":
// when a vertex's GNN output barely changed between snapshots, only the
// non-zero input delta is pushed through the input-to-hidden weights,
// reusing the cached gate pre-activations (the recurrent contribution
// is carried over — valid exactly when the final features are similar,
// which is what the similarity score guarantees).
#pragma once

#include <span>

#include "common/types.hpp"
#include "nn/condense.hpp"

#include "nn/op_counts.hpp"
#include "nn/weights.hpp"
#include "tensor/matrix.hpp"

namespace tagnn {

/// Kept so existing callers of the RnnBatchScratch overloads compile;
/// holds nothing. The batched paths stage their gate products in
/// per-thread tiles of one row block (see RnnCell::full_update_rows),
/// not in n-row matrices.
struct RnnBatchScratch {};

class RnnCell {
 public:
  explicit RnnCell(const DgnnWeights& weights);

  std::size_t hidden() const { return h_; }
  std::size_t input_dim() const { return dz_; }
  RnnKind kind() const { return kind_; }

  /// Per-vertex scratch the engine must persist between snapshots for
  /// the delta path: LSTM caches the combined gate pre-activations
  /// (4H); GRU caches the x-part and h-part separately (3H + 3H).
  std::size_t cache_dim() const;
  /// Cell state width: H for LSTM (the c vector); 0 for GRU.
  std::size_t cell_state_dim() const;

  /// Full update. Inputs: x (input_dim), h_prev (H), c_prev
  /// (cell_state_dim, may be empty for GRU). Outputs: h (H), c
  /// (cell_state_dim), cache (cache_dim).
  void full_update(std::span<const float> x, std::span<const float> h_prev,
                   std::span<const float> c_prev, std::span<float> h_out,
                   std::span<float> c_out, std::span<float> cache,
                   OpCounts& counts) const;

  /// Batched full update over the listed rows (strictly ascending).
  /// The rows are walked in blocks of kBlockRows; per block both gate
  /// GEMMs (x * Wx accumulated onto the bias, h_prev * Wh) run into
  /// L1-resident tiles, which are then folded into the cache rows
  /// before h/c are derived. h/c/cache rows of `h`/`c`/`cache` are
  /// updated in place; unlisted rows are untouched. Value-identical to
  /// calling full_update per row (same ascending-k accumulation order)
  /// — the concurrent engine's hot path.
  void full_update_rows(const Matrix& z, std::span<const VertexId> rows,
                        Matrix& h, Matrix& c, Matrix& cache,
                        OpCounts& counts) const;
  void full_update_rows(const Matrix& z, std::span<const VertexId> rows,
                        Matrix& h, Matrix& c, Matrix& cache,
                        RnnBatchScratch& /*unused*/, OpCounts& counts) const {
    full_update_rows(z, rows, h, c, cache, counts);
  }

  /// Rows per block of the batched paths: 16 rows of gate products
  /// (16 x gates*H floats per tile) stay in L1 next to the weights'
  /// working set.
  static constexpr std::size_t kBlockRows = 16;

  /// A delta block of m rows runs its gate products through the
  /// zero-skipping accumulate kernels when its kept lanes number at
  /// most 1/kSparseBlockShare of its m * (input_dim + H) lanes, and
  /// through the register-tile kernels otherwise: the tiles win on
  /// dense deltas (fk-tgcn keeps ~86% of its lanes), the skip path
  /// costs in proportion to the kept lanes (ml-cdgcn keeps ~0.3%).
  /// Both give the same bits for finite weights (see rnn.cpp).
  static constexpr std::size_t kSparseBlockShare = 4;

  /// Delta update (DeltaRNN-style): folds the sparse input delta `dx`
  /// and the sparse recurrent delta `dh` (drift of h since the last
  /// update that refreshed the cache) into the cached pre-activations
  /// and re-derives h/c. Both vectors are dense with zeros marking
  /// unchanged components. `cache` is updated in place.
  void delta_update(std::span<const float> dx, std::span<const float> dh,
                    std::span<const float> h_prev,
                    std::span<const float> c_prev, std::span<float> h_out,
                    std::span<float> c_out, std::span<float> cache,
                    OpCounts& counts) const;

  /// Sparse variant: consumes Condense Unit outputs directly (packed
  /// non-zero values + addresses), exactly as the hardware does.
  /// Numerically identical to the dense variant (tested).
  void delta_update(const CondensedVector& dx, const CondensedVector& dh,
                    std::span<const float> h_prev,
                    std::span<const float> c_prev, std::span<float> h_out,
                    std::span<float> c_out, std::span<float> cache,
                    OpCounts& counts) const;

  /// Batched delta update over the listed rows (strictly ascending):
  /// `dx`/`dh` hold the thresholded deltas as dense rows (zeros mark
  /// unchanged lanes — see dense_delta). Per block of kBlockRows rows
  /// both gate products run into L1 tiles, which are then folded onto
  /// the cached pre-activations before h/c are derived. `total_nnz` is
  /// the kept-lane count across all listed rows, charged exactly as the
  /// per-vertex path charges its condensed lanes. Matches per-row
  /// delta_update up to float reassociation (the lane sum is formed
  /// before touching the cache).
  void delta_update_rows(const Matrix& dx, const Matrix& dh,
                         std::span<const VertexId> rows, double total_nnz,
                         Matrix& h, Matrix& c, Matrix& cache,
                         OpCounts& counts) const;
  void delta_update_rows(const Matrix& dx, const Matrix& dh,
                         std::span<const VertexId> rows, double total_nnz,
                         Matrix& h, Matrix& c, Matrix& cache,
                         RnnBatchScratch& /*unused*/, OpCounts& counts) const {
    delta_update_rows(dx, dh, rows, total_nnz, h, c, cache, counts);
  }

  /// Fused Condense Unit + batched delta update — the concurrent
  /// engine's delta path. Each block first condenses its rows' drift
  /// (z - z_applied, h - h_applied; dense_delta's keep rule with
  /// threshold `eps`, kept lanes folded into the applied rows) straight
  /// into per-thread tiles, then runs the same block routine as the
  /// matrix-input overload. Byte-identical to dense_delta into dx/dh
  /// rows followed by that overload, without the n-row delta matrices.
  void delta_update_rows(const Matrix& z, Matrix& z_applied,
                         Matrix& h_applied, float eps,
                         std::span<const VertexId> rows, Matrix& h,
                         Matrix& c, Matrix& cache, OpCounts& counts) const;

  /// MACs of one full update (for cost models).
  double full_update_macs() const {
    return static_cast<double>((dz_ + h_) * gates_ * h_);
  }

 private:
  void derive_outputs(std::span<const float> h_prev,
                      std::span<const float> c_prev,
                      std::span<const float> cache, std::span<float> h_out,
                      std::span<float> c_out) const;

  // The block routine behind the three batched entry points; see
  // rnn.cpp. Returns the kept-lane count `source` reports.
  template <class Source>
  std::size_t update_blocks(std::span<const VertexId> rows, bool full,
                            Matrix& h, Matrix& c, Matrix& cache,
                            const Source& source) const;
  void charge_delta_rows(std::size_t rows, double total_nnz,
                         OpCounts& counts) const;

  const DgnnWeights& w_;
  RnnKind kind_;
  std::size_t dz_;
  std::size_t h_;
  std::size_t gates_;
};

}  // namespace tagnn
