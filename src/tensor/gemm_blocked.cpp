// Cache-blocked GEMM (docs/PERFORMANCE.md) — the ops::gemm and
// ops::gemm_rows entry points.
//
// Loop structure, outermost first:
//   jc : nc-wide column panels of B/C;
//   pc : kc-deep row panels of B — each (kc x nc) panel is packed once
//        into a contiguous scratch buffer (transpose-free: B is
//        row-major and stays row-major). A single panel covering all of
//        B *is* B byte for byte, so it is used in place, unpacked;
//   i  : row panels of A/C — split across the thread pool by ops::gemm,
//        walked serially by ops::gemm_rows (its callers parallelise over
//        row blocks);
//   micro-kernel: mr rows of A broadcast against the packed panel, so
//        every packed element loaded from cache is reused mr times.
//
// The micro-kernels themselves come from the kernel registry
// (tensor/kernel_registry.hpp): AVX2 when the host supports it, scalar
// otherwise, overridable via TAGNN_KERNEL_ISA / --kernel-isa. When one
// k-panel covers all of k (k <= kc, the common case for GNN layer dims)
// and the call is not accumulating, the tile_* kernels hold a 4 x 16 C
// tile in registers for the whole accumulation and store it once — no C
// traffic inside the k loop. Deeper k and accumulate mode use the
// micro_* kernels, which fold into C's existing contents: they skip
// every k column whose A values are zero in all the rows they cover
// (the AVX2 variant lists the kept columns once per call, then holds a
// 4 x 16 C tile in registers across that list), so their cost follows
// the non-zero A columns — the sparse RNN delta blocks run through them
// for that reason. Per-element evaluation order stays ascending across
// and within panels.
//
// Exactness: each C element accumulates its k terms in strictly
// ascending order (pc panels ascend, k inside a panel ascends), the
// same order as gemm_naive and ops::gemv, and rows never split across
// threads mid-accumulation — results are value-identical to the naive
// kernel for finite inputs, independent of the thread count and of the
// dispatched ISA.
#include <algorithm>
#include <vector>

#include "common/thread_pool.hpp"
#include "tensor/kernel_registry.hpp"
#include "tensor/ops.hpp"

namespace tagnn::ops {
namespace {

// Walks B's (kc x nc) panels in (jc, pc) order and hands each one to
// run(pk, kcb, ncb, jc, pc), packing it into `scratch` unless it is all
// of B.
template <class Run>
void for_each_panel(const Matrix& b, const GemmBlocking& blocking,
                    std::vector<float>& scratch, Run&& run) {
  const std::size_t k_dim = b.rows();
  const std::size_t n = b.cols();
  const std::size_t kc = std::max<std::size_t>(1, blocking.kc);
  const std::size_t nc = std::max<std::size_t>(1, blocking.nc);
  for (std::size_t jc = 0; jc < n; jc += nc) {
    const std::size_t ncb = std::min(nc, n - jc);
    for (std::size_t pc = 0; pc < k_dim; pc += kc) {
      const std::size_t kcb = std::min(kc, k_dim - pc);
      if (kcb == k_dim && ncb == n) {
        run(b.data(), kcb, ncb, jc, pc);
        continue;
      }
      // Pack B[pc:pc+kcb, jc:jc+ncb] row-major into the scratch panel.
      scratch.resize(kcb * ncb);
      for (std::size_t kk = 0; kk < kcb; ++kk) {
        const float* src = b.data() + (pc + kk) * n + jc;
        std::copy(src, src + ncb, scratch.data() + kk * ncb);
      }
      run(scratch.data(), kcb, ncb, jc, pc);
    }
  }
}

// The micro-kernel dispatch shared by both entry points: rows [r0, r1)
// against one (kcb x ncb) panel, four at a time, then singly. arow(i) /
// crow(i) address row i's first element inside the panel. `tile`
// selects the register-tile kernels (one k panel, C overwritten) over
// the streaming micro_* kernels (C accumulated).
template <class ARow, class CRow>
void dispatch_rows(const kernels::GemmMicroKernels& mk, bool tile,
                   const float* pk, std::size_t kcb, std::size_t ncb,
                   std::size_t r0, std::size_t r1, ARow&& arow,
                   CRow&& crow) {
  std::size_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    const float *a0 = arow(i), *a1 = arow(i + 1), *a2 = arow(i + 2),
                *a3 = arow(i + 3);
    float *c0 = crow(i), *c1 = crow(i + 1), *c2 = crow(i + 2),
          *c3 = crow(i + 3);
    if (tile) {
      mk.tile_4row(a0, a1, a2, a3, pk, kcb, ncb, c0, c1, c2, c3);
    } else {
      mk.micro_4row(a0, a1, a2, a3, pk, kcb, ncb, c0, c1, c2, c3);
    }
  }
  for (; i < r1; ++i) {
    if (tile) {
      mk.tile_1row(arow(i), pk, kcb, ncb, ncb, crow(i));
    } else {
      mk.micro_1row(arow(i), pk, kcb, ncb, crow(i));
    }
  }
}

// A single k panel lets the micro-kernel keep its C tile in registers
// for the full accumulation (register tiles overwrite C, so accumulate
// mode always streams); wrapping the tail tile into the packed scratch
// is handled inside tile_1row/tile_4row.
bool use_tile(std::size_t k_dim, const GemmBlocking& blocking,
              bool accumulate) {
  return k_dim <= std::max<std::size_t>(1, blocking.kc) && !accumulate;
}

}  // namespace

void gemm(const Matrix& a, const Matrix& b, Matrix& c, const GemmOpts& opts) {
  TAGNN_CHECK_MSG(a.cols() == b.rows(),
                  "gemm shape mismatch: " << a.rows() << 'x' << a.cols()
                                          << " * " << b.rows() << 'x'
                                          << b.cols());
  const std::span<const std::uint32_t> rows = opts.rows;
  const std::size_t m = a.rows();
  const std::size_t k_dim = a.cols();
  const std::size_t n = b.cols();
  const bool masked = !rows.empty();
  if (!masked) {
    if (c.rows() != m || c.cols() != n) {
      TAGNN_CHECK_MSG(!opts.accumulate,
                      "accumulate-mode gemm needs a pre-shaped C");
      c = Matrix(m, n);
    } else if (!opts.accumulate) {
      c.fill(0.0f);
    }
  } else {
    TAGNN_CHECK(c.rows() == m && c.cols() == n);
    if (!opts.accumulate) {
      for (const std::uint32_t r : rows) {
        TAGNN_DCHECK(r < m);
        float* cr = c.data() + static_cast<std::size_t>(r) * n;
        std::fill(cr, cr + n, 0.0f);
      }
    }
  }
  const std::size_t num_rows = masked ? rows.size() : m;
  if (num_rows == 0 || n == 0 || k_dim == 0) return;

  const kernels::GemmMicroKernels mk = kernels::registry().gemm();
  const bool tile = use_tile(k_dim, opts.blocking, opts.accumulate);
  // Maps a logical row index to the physical C/A row.
  auto phys = [&](std::size_t i) -> std::size_t {
    return masked ? static_cast<std::size_t>(rows[i]) : i;
  };
  std::vector<float> packed;
  for_each_panel(b, opts.blocking, packed,
                 [&](const float* pk, std::size_t kcb, std::size_t ncb,
                     std::size_t jc, std::size_t pc) {
    parallel_for(0, num_rows, [&](std::size_t r0, std::size_t r1) {
      dispatch_rows(
          mk, tile, pk, kcb, ncb, r0, r1,
          [&](std::size_t i) { return a.data() + phys(i) * k_dim + pc; },
          [&](std::size_t i) { return c.data() + phys(i) * n + jc; });
    }, /*serial_threshold=*/32);
  });
}

void gemm_rows(std::span<const float* const> a, const Matrix& b,
               std::span<float* const> c, bool accumulate) {
  TAGNN_CHECK(a.size() == c.size());
  const std::size_t n = b.cols();
  const GemmBlocking blocking{};
  const bool tile = use_tile(b.rows(), blocking, accumulate);
  // Register tiles overwrite C; every other form folds into it.
  if (!accumulate && (!tile || b.rows() == 0)) {
    for (float* cr : c) std::fill(cr, cr + n, 0.0f);
  }
  if (a.empty() || n == 0 || b.rows() == 0) return;
  const kernels::GemmMicroKernels mk = kernels::registry().gemm();
  thread_local std::vector<float> packed;
  for_each_panel(b, blocking, packed,
                 [&](const float* pk, std::size_t kcb, std::size_t ncb,
                     std::size_t jc, std::size_t pc) {
    dispatch_rows(
        mk, tile, pk, kcb, ncb, 0, a.size(),
        [&](std::size_t i) { return a[i] + pc; },
        [&](std::size_t i) { return c[i] + jc; });
  });
}

}  // namespace tagnn::ops
