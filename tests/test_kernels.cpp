// Equivalence tests for the blocked hot-path kernels and the kernel
// registry. The contract under test: every registered ISA variant (and
// the blocked structure around it) is *value-identical* to the scalar
// references for finite inputs, at any thread count, including
// masked-row and accumulate-mode execution — so neither swapping the
// kernels under the engines nor forcing TAGNN_KERNEL_ISA can change
// any result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "graph/datasets.hpp"
#include "nn/approx.hpp"
#include "nn/engine.hpp"
#include "nn/gcn.hpp"
#include "nn/quantize.hpp"
#include "nn/rnn.hpp"
#include "tagnn/accelerator.hpp"
#include "tensor/kernel_registry.hpp"
#include "tensor/ops.hpp"
#include "tensor/spmm.hpp"

namespace tagnn {
namespace {

// Forces a dispatch cap for one scope; restores auto on exit.
struct ScopedIsa {
  explicit ScopedIsa(const char* cap) {
    ok = kernels::registry().force_isa(cap, &error);
  }
  ~ScopedIsa() { kernels::registry().force_isa("auto"); }
  bool ok = false;
  std::string error;
};

bool bytes_equal(const Matrix& a, const Matrix& b) {
  // An empty Matrix (a GRU's cell state) may hold a null data pointer,
  // which memcmp must not see even for zero bytes.
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool bytes_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

Matrix rand_mat(std::size_t r, std::size_t c, std::uint64_t seed,
                float zero_frac = 0.0f) {
  Rng rng(seed);
  Matrix m = Matrix::random(r, c, rng, 1.0f);
  if (zero_frac > 0.0f) {
    // Inject exact zeros so the naive kernel's zero-skip path runs.
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (rng.chance(zero_frac)) m.data()[i] = 0.0f;
    }
  }
  return m;
}

// ---------- gemm_blocked vs gemm_naive ----------

TEST(GemmBlocked, MatchesNaiveOnOddShapes) {
  // Shapes straddle every tiling boundary: row tails (m % 4), column
  // tails (n % 16), k above and below the single-panel threshold.
  const struct { std::size_t m, k, n; } shapes[] = {
      {1, 1, 1},   {3, 5, 7},    {4, 16, 16},  {17, 62, 33},
      {64, 64, 64}, {70, 130, 96}, {33, 520, 45},  // k > kc: panel split
      {129, 100, 257},                             // n > nc: column split
  };
  for (const auto& s : shapes) {
    const Matrix a = rand_mat(s.m, s.k, /*seed=*/s.m * 1000 + s.n, 0.3f);
    const Matrix b = rand_mat(s.k, s.n, /*seed=*/s.k * 77 + 5);
    Matrix want, got;
    gemm_naive(a, b, want);
    ops::gemm(a, b, got);
    EXPECT_EQ(want, got) << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(GemmBlocked, MaskedRowsComputeOnlyListedRows) {
  const Matrix a = rand_mat(23, 40, 11);
  const Matrix b = rand_mat(40, 19, 12);
  Matrix full;
  gemm_naive(a, b, full);

  const std::vector<std::uint32_t> rows = {0, 3, 4, 5, 11, 22};
  Matrix c(23, 19);
  c.fill(-7.0f);  // sentinel: untouched rows must keep it
  ops::gemm(a, b, c, {.rows = rows});
  std::size_t next = 0;
  for (std::uint32_t r = 0; r < 23; ++r) {
    const bool listed = next < rows.size() && rows[next] == r;
    if (listed) ++next;
    for (std::size_t j = 0; j < 19; ++j) {
      if (listed) {
        EXPECT_EQ(c(r, j), full(r, j)) << "row " << r;
      } else {
        EXPECT_EQ(c(r, j), -7.0f) << "row " << r << " was touched";
      }
    }
  }
}

TEST(GemmBlocked, ThreadCountSweepIsBitStable) {
  const Matrix a = rand_mat(150, 120, 21, 0.2f);
  const Matrix b = rand_mat(120, 90, 22);
  Matrix base;
  {
    ScopedGlobalThreadPool one(1);
    ops::gemm(a, b, base);
  }
  for (const std::size_t t : {std::size_t{2}, std::size_t{8}}) {
    ScopedGlobalThreadPool scoped(t);
    Matrix c;
    ops::gemm(a, b, c);
    EXPECT_EQ(base, c) << t << " threads";
  }
}

TEST(GemmBlocked, CustomBlockingMatchesDefault) {
  const Matrix a = rand_mat(37, 95, 31);
  const Matrix b = rand_mat(95, 41, 32);
  Matrix want;
  ops::gemm(a, b, want);
  for (const GemmBlocking blk : {GemmBlocking{8, 16, 4},
                                 GemmBlocking{95, 41, 4},
                                 GemmBlocking{1, 1, 4}}) {
    Matrix got;
    ops::gemm(a, b, got, {.blocking = blk});
    EXPECT_EQ(want, got) << "kc=" << blk.kc << " nc=" << blk.nc;
  }
}

// ---------- spmm vs aggregate_vertex ----------

struct SpmmFixture {
  DynamicGraph g = datasets::load("GT", 0.2, 2);
  const Snapshot& snap = g.snapshot(1);
  const Matrix& x = snap.features;
  VertexId n = g.num_vertices();
};

TEST(SpmmMean, MatchesAggregateVertexExactly) {
  SpmmFixture f;
  Matrix want(f.n, f.x.cols());
  for (VertexId v = 0; v < f.n; ++v) {
    aggregate_vertex(f.snap, f.x, v, want.row(v));
  }
  Matrix csr, naive;
  spmm_mean_csr(f.snap.graph.offsets(), f.snap.graph.neighbor_array(),
                f.snap.present, f.x, {}, csr);
  spmm_mean_naive(f.snap.graph.offsets(), f.snap.graph.neighbor_array(),
                  f.snap.present, f.x, {}, naive);
  EXPECT_EQ(want, csr);
  EXPECT_EQ(want, naive);
}

TEST(SpmmMean, MaskedRowsAndThreadSweep) {
  SpmmFixture f;
  std::vector<VertexId> rows;
  for (VertexId v = 0; v < f.n; v += 3) rows.push_back(v);

  Matrix base(f.n, f.x.cols());
  {
    ScopedGlobalThreadPool one(1);
    spmm_mean_csr(f.snap.graph.offsets(), f.snap.graph.neighbor_array(),
                  f.snap.present, f.x, rows, base);
  }
  for (const std::size_t t : {std::size_t{2}, std::size_t{8}}) {
    ScopedGlobalThreadPool scoped(t);
    Matrix out(f.n, f.x.cols());
    out.fill(-3.0f);
    spmm_mean_csr(f.snap.graph.offsets(), f.snap.graph.neighbor_array(),
                  f.snap.present, f.x, rows, out);
    std::size_t next = 0;
    for (VertexId v = 0; v < f.n; ++v) {
      const bool listed = next < rows.size() && rows[next] == v;
      if (listed) {
        ++next;
        for (std::size_t j = 0; j < base.cols(); ++j) {
          ASSERT_EQ(base(v, j), out(v, j)) << "row " << v << " col " << j;
        }
      } else {
        EXPECT_EQ(out(v, 0), -3.0f) << "row " << v << " was touched";
      }
    }
  }
}

// ---------- engine window pipelining ----------

TEST(EnginePipelining, PipelinedMatchesSerialByteForByte) {
  const DynamicGraph g = datasets::load("ML", 0.25, 6);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 3);

  for (const bool skip : {false, true}) {
    EngineOptions serial;
    serial.window_size = 2;
    serial.cell_skip = skip;
    serial.pipeline_windows = false;
    EngineOptions piped = serial;
    piped.pipeline_windows = true;

    const EngineResult rs = ConcurrentEngine(serial).run(g, w);
    const EngineResult rp = ConcurrentEngine(piped).run(g, w);
    ASSERT_EQ(rs.outputs.size(), rp.outputs.size());
    for (std::size_t t = 0; t < rs.outputs.size(); ++t) {
      EXPECT_TRUE(rs.outputs[t] == rp.outputs[t])
          << "skip=" << skip << " snapshot " << t;
    }
    EXPECT_TRUE(rs.final_hidden == rp.final_hidden) << "skip=" << skip;
    EXPECT_EQ(rs.gnn_counts.macs, rp.gnn_counts.macs);
    EXPECT_EQ(rs.rnn_counts.rnn_skip, rp.rnn_counts.rnn_skip);
  }
}

TEST(EnginePipelining, PipelinedNoSkipMatchesReferenceAt1_2_8Threads) {
  const DynamicGraph g = datasets::load("GT", 0.3, 4);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("CD-GCN"), g.feature_dim(), 5);
  EngineResult baseline;
  {
    ScopedGlobalThreadPool one(1);
    baseline = ReferenceEngine().run(g, w);
  }
  EngineOptions opts;
  opts.cell_skip = false;
  opts.window_size = 2;
  opts.pipeline_windows = true;
  for (const std::size_t t : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    ScopedGlobalThreadPool scoped(t);
    const EngineResult r = ConcurrentEngine(opts).run(g, w);
    ASSERT_EQ(r.outputs.size(), baseline.outputs.size());
    for (std::size_t i = 0; i < r.outputs.size(); ++i) {
      EXPECT_TRUE(r.outputs[i] == baseline.outputs[i])
          << t << " threads, snapshot " << i;
    }
    EXPECT_TRUE(r.final_hidden == baseline.final_hidden) << t << " threads";
  }
}

// ---------- approx / quantize paths under the blocked kernels ----------

TEST(ApproxQuantizeThreads, DeterministicAcrossThreadCounts) {
  const DynamicGraph g = datasets::load("GT", 0.2, 4);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 9);

  EngineResult approx1, quant1;
  {
    ScopedGlobalThreadPool one(1);
    approx1 = run_with_approximation(g, w, ApproxMethod::kDeltaRnn);
    quant1 = run_quantized(g, w, QuantConfig{});
  }
  for (const std::size_t t : {std::size_t{2}, std::size_t{8}}) {
    ScopedGlobalThreadPool scoped(t);
    const EngineResult a = run_with_approximation(g, w,
                                                  ApproxMethod::kDeltaRnn);
    const EngineResult q = run_quantized(g, w, QuantConfig{});
    ASSERT_EQ(a.outputs.size(), approx1.outputs.size());
    for (std::size_t i = 0; i < a.outputs.size(); ++i) {
      EXPECT_TRUE(a.outputs[i] == approx1.outputs[i]) << t << " threads";
    }
    ASSERT_EQ(q.outputs.size(), quant1.outputs.size());
    for (std::size_t i = 0; i < q.outputs.size(); ++i) {
      EXPECT_TRUE(q.outputs[i] == quant1.outputs[i]) << t << " threads";
    }
  }
  // The approximations stay approximations: bounded drift from exact.
  const EngineResult exact = ReferenceEngine().run(g, w);
  ASSERT_EQ(exact.outputs.size(), approx1.outputs.size());
  for (std::size_t i = 0; i < exact.outputs.size(); ++i) {
    EXPECT_LT(max_abs_diff(exact.outputs[i], approx1.outputs[i]), 1.0f);
    EXPECT_LT(max_abs_diff(exact.outputs[i], quant1.outputs[i]), 1.0f);
  }
}

// ---------- accelerator window pipelining ----------

TEST(AccelPipelining, PipelinedIsFasterAndKeepsInvariants) {
  const DynamicGraph g = datasets::load("GT", 0.2, 8);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 2);

  TagnnConfig serial;
  serial.pipeline_windows = false;
  TagnnConfig piped;
  piped.pipeline_windows = true;

  const AccelResult rs = TagnnAccelerator(serial).run(g, w);
  const AccelResult rp = TagnnAccelerator(piped).run(g, w);

  // Functional results do not depend on the timing model.
  EXPECT_TRUE(rs.functional.final_hidden == rp.functional.final_hidden);
  // Per-unit work is schedule-independent; only the makespan shrinks.
  EXPECT_EQ(rs.cycles.msdl, rp.cycles.msdl);
  EXPECT_EQ(rs.cycles.gnn, rp.cycles.gnn);
  EXPECT_EQ(rs.cycles.rnn, rp.cycles.rnn);
  EXPECT_EQ(rs.cycles.memory, rp.cycles.memory);
  EXPECT_LT(rp.cycles.total, rs.cycles.total);

  // The pipelined schedule still dominates every unit's busy sum, so
  // busy + stall == total stays exact, and the window records tile the
  // timeline.
  for (const AccelResult* r : {&rs, &rp}) {
    Cycle at = 0;
    for (const AccelWindowRecord& rec : r->telemetry.window_records) {
      EXPECT_EQ(rec.begin, at);
      at += rec.total;
    }
    EXPECT_EQ(at, r->cycles.total);
    EXPECT_GE(r->cycles.total, r->cycles.msdl);
    EXPECT_GE(r->cycles.total, r->cycles.gnn);
    EXPECT_GE(r->cycles.total, r->cycles.rnn);
    EXPECT_GE(r->cycles.total, r->cycles.memory);
  }
}

// ---------- kernel registry: introspection + ISA dispatch ----------

TEST(KernelRegistry, IntrospectionListsOpsAndVariants) {
  auto& reg = kernels::registry();
  for (const char* op : {"gemm", "spmm", "vec"}) {
    const std::vector<std::string> vs = reg.variants(op);
    ASSERT_FALSE(vs.empty()) << op;
    // The scalar reference is always registered and always eligible.
    EXPECT_NE(std::find(vs.begin(), vs.end(), "scalar"), vs.end()) << op;
    EXPECT_FALSE(reg.active(op).empty()) << op;
  }
  EXPECT_TRUE(reg.active("no-such-op").empty());
  const auto pairs = reg.active_variants();
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0].first, "gemm");
  EXPECT_EQ(pairs[1].first, "spmm");
  EXPECT_EQ(pairs[2].first, "vec");
}

TEST(KernelRegistry, ForceIsaRejectsUnknownNames) {
  std::string error;
  EXPECT_FALSE(kernels::registry().force_isa("sse42", &error));
  EXPECT_FALSE(error.empty());
  // A failed force leaves the active selection untouched.
  EXPECT_FALSE(kernels::registry().active("gemm").empty());
}

TEST(KernelRegistry, ForcedScalarServesScalarEverywhere) {
  ScopedIsa scalar("scalar");
  ASSERT_TRUE(scalar.ok) << scalar.error;
  for (const char* op : {"gemm", "spmm", "vec"}) {
    EXPECT_EQ(kernels::registry().active(op), "scalar") << op;
  }
  EXPECT_EQ(kernels::registry().active_isa(), kernels::Isa::kScalar);
}

// Every SIMD variant must be BIT-exact (memcmp, not epsilon) with the
// scalar kernels across tiling boundaries, masked rows, accumulate
// mode, and thread counts — TAGNN_KERNEL_ISA may never change results.
TEST(KernelRegistry, IsaSweepIsBitExactOnOddShapes) {
  if (!kernels::CpuFeatures::host().avx2) {
    GTEST_SKIP() << "host has no AVX2; scalar is the only variant";
  }
  const struct { std::size_t m, k, n; } shapes[] = {
      {1, 1, 1},  {3, 5, 7},   {4, 16, 16},   {17, 62, 33},
      {5, 9, 23},  // k and n straddle the 8-lane vector width
      {70, 130, 96}, {33, 520, 45}, {129, 100, 257},
  };
  for (const auto& s : shapes) {
    const Matrix a = rand_mat(s.m, s.k, /*seed=*/s.m * 991 + s.n, 0.3f);
    const Matrix b = rand_mat(s.k, s.n, /*seed=*/s.k * 13 + 1);
    Matrix want, got;
    {
      ScopedIsa scalar("scalar");
      ASSERT_TRUE(scalar.ok) << scalar.error;
      ops::gemm(a, b, want);
    }
    {
      ScopedIsa avx2("avx2");
      ASSERT_TRUE(avx2.ok) << avx2.error;
      ops::gemm(a, b, got);
    }
    EXPECT_TRUE(bytes_equal(want, got))
        << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(KernelRegistry, IsaSweepMaskedAccumulateAndThreads) {
  if (!kernels::CpuFeatures::host().avx2) {
    GTEST_SKIP() << "host has no AVX2; scalar is the only variant";
  }
  const Matrix a = rand_mat(37, 41, 51, 0.2f);
  const Matrix b = rand_mat(41, 29, 52);
  const std::vector<std::uint32_t> rows = {0, 1, 5, 6, 7, 19, 36};
  auto run = [&](const char* cap, std::size_t threads) {
    ScopedIsa isa(cap);
    EXPECT_TRUE(isa.ok) << isa.error;
    ScopedGlobalThreadPool pool(threads);
    Matrix c(37, 29);
    c.fill(0.25f);  // accumulate on top of a non-zero C
    ops::gemm(a, b, c, {.rows = rows, .accumulate = true});
    return c;
  };
  const Matrix want = run("scalar", 1);
  for (const std::size_t t : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    EXPECT_TRUE(bytes_equal(want, run("scalar", t))) << "scalar/" << t;
    EXPECT_TRUE(bytes_equal(want, run("avx2", t))) << "avx2/" << t;
  }
}

TEST(KernelRegistry, IsaSweepSpmmBitExact) {
  if (!kernels::CpuFeatures::host().avx2) {
    GTEST_SKIP() << "host has no AVX2; scalar is the only variant";
  }
  SpmmFixture f;
  auto run = [&](const char* cap) {
    ScopedIsa isa(cap);
    EXPECT_TRUE(isa.ok) << isa.error;
    Matrix out(f.n, f.x.cols());
    spmm_mean_csr(f.snap.graph.offsets(), f.snap.graph.neighbor_array(),
                  f.snap.present, f.x, {}, out);
    return out;
  };
  EXPECT_TRUE(bytes_equal(run("scalar"), run("avx2")));
}

// ---------- accumulate-mode micro-kernels: AVX2 vs scalar ----------

// One accumulate-mode call's operands: four A rows of kcb values, a
// (kcb x ncb) packed panel and four C rows of ncb values. A column k is
// zero in (k % 5) of the four rows, so the cases cover columns zero in
// 0, 1, 2, 3 and all 4 rows; C carries -0.0 entries.
struct MicroCase {
  MicroCase(std::size_t kcb_, std::size_t ncb_, std::uint64_t seed)
      : kcb(kcb_), ncb(ncb_), a(4 * kcb_), b(kcb_ * ncb_), c(4 * ncb_) {
    Rng rng(seed);
    for (float& x : a) x = rng.normal();
    for (float& x : b) x = rng.normal();
    for (std::size_t i = 0; i < c.size(); ++i) {
      c[i] = i % 7 == 3 ? -0.0f : rng.normal();
    }
    for (std::size_t k = 0; k < kcb; ++k) {
      for (std::size_t r = 0; r < k % 5; ++r) a[r * kcb + k] = 0.0f;
    }
  }

  // Runs micro_4row, or micro_1row on each row, of `isa` on a copy of C.
  std::vector<float> run(kernels::Isa isa, bool four) const {
    const kernels::GemmMicroKernels& mk = kernels::registry().gemm(isa);
    std::vector<float> out = c;
    const float* ar[4];
    float* cr[4];
    for (std::size_t r = 0; r < 4; ++r) {
      ar[r] = a.data() + r * kcb;
      cr[r] = out.data() + r * ncb;
    }
    if (four) {
      mk.micro_4row(ar[0], ar[1], ar[2], ar[3], b.data(), kcb, ncb, cr[0],
                    cr[1], cr[2], cr[3]);
    } else {
      for (std::size_t r = 0; r < 4; ++r) {
        mk.micro_1row(ar[r], b.data(), kcb, ncb, cr[r]);
      }
    }
    return out;
  }

  std::size_t kcb, ncb;
  std::vector<float> a, b, c;
};

// Every ncb straddles the 8- and 16-column passes; kcb runs up to and
// past the AVX2 kernel's 512-column stack chunk.
TEST(MicroKernels, AccumulateIsaSweepIsBitExact) {
  if (!kernels::CpuFeatures::host().avx2) {
    GTEST_SKIP() << "host has no AVX2; scalar is the only variant";
  }
  for (const std::size_t ncb : {1, 7, 8, 15, 16, 17, 33, 144, 192}) {
    for (const std::size_t kcb : {1, 4, 5, 31, 511, 512, 513, 1100}) {
      const MicroCase mc(kcb, ncb, kcb * 1000 + ncb);
      for (const bool four : {true, false}) {
        EXPECT_TRUE(bytes_equal(mc.run(kernels::Isa::kScalar, four),
                                mc.run(kernels::Isa::kAvx2, four)))
            << "kcb " << kcb << " ncb " << ncb << " four " << four;
      }
    }
  }
}

// A column that is zero in every row is skipped, so an Inf under it in
// B never turns into 0 * Inf = NaN; a NaN in A propagates to its row
// only. Both ISAs must agree bit for bit.
TEST(MicroKernels, AccumulateSkipsInfUnderZeroColumnAndPropagatesNaN) {
  if (!kernels::CpuFeatures::host().avx2) {
    GTEST_SKIP() << "host has no AVX2; scalar is the only variant";
  }
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (const std::size_t ncb : {7, 16, 33, 144}) {
    MicroCase mc(40, ncb, 17 + ncb);
    const std::size_t zero_col = 4;  // 4 % 5 == 4: zero in all four rows
    for (std::size_t j = 0; j < ncb; ++j) mc.b[zero_col * ncb + j] = kInf;
    for (const bool four : {true, false}) {
      const std::vector<float> want = mc.run(kernels::Isa::kScalar, four);
      EXPECT_TRUE(bytes_equal(want, mc.run(kernels::Isa::kAvx2, four)));
      for (const float x : want) EXPECT_TRUE(std::isfinite(x));
    }
    mc.a[2 * mc.kcb + 11] = std::numeric_limits<float>::quiet_NaN();
    for (const bool four : {true, false}) {
      const std::vector<float> want = mc.run(kernels::Isa::kScalar, four);
      EXPECT_TRUE(bytes_equal(want, mc.run(kernels::Isa::kAvx2, four)));
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(std::isnan(want[i]), i / ncb == 2) << "ncb " << ncb;
      }
    }
  }
}

// A caller kc above the stack chunk hands the kernels kcb > 512 per
// panel; accumulate-mode ops::gemm must still match across ISAs.
TEST(MicroKernels, AccumulateGemmWithLargeKcIsBitExact) {
  if (!kernels::CpuFeatures::host().avx2) {
    GTEST_SKIP() << "host has no AVX2; scalar is the only variant";
  }
  const Matrix a = rand_mat(11, 1100, 71, 0.6f);
  const Matrix b = rand_mat(1100, 40, 72);
  auto run = [&](const char* cap) {
    ScopedIsa isa(cap);
    EXPECT_TRUE(isa.ok) << isa.error;
    Matrix c(11, 40);
    c.fill(-0.0f);
    ops::gemm(a, b, c, {.blocking = {.kc = 1100}, .accumulate = true});
    return c;
  };
  EXPECT_TRUE(bytes_equal(run("scalar"), run("avx2")));
}

// ---------- ops::gemm_rows vs ops::gemm ----------

// The row-pointer form shares ops::gemm's panel walk and dispatch; with
// k > kc or n > nc it packs B panel by panel instead of using B in place.
TEST(GemmRows, MatchesGemmInPlaceAndPacked) {
  const struct { std::size_t m, k, n; } shapes[] = {
      {5, 41, 29}, {16, 32, 144}, {7, 520, 45}, {6, 100, 257}, {9, 600, 300},
  };
  for (const auto& s : shapes) {
    const Matrix a = rand_mat(s.m, s.k, s.m * 31 + s.k, 0.2f);
    const Matrix b = rand_mat(s.k, s.n, s.k * 7 + s.n);
    for (const bool accumulate : {false, true}) {
      Matrix want(s.m, s.n), got(s.m, s.n);
      want.fill(0.25f);
      got.fill(0.25f);
      ops::gemm(a, b, want, {.accumulate = accumulate});
      std::vector<const float*> arows;
      std::vector<float*> crows;
      for (std::size_t i = 0; i < s.m; ++i) {
        arows.push_back(a.row(i).data());
        crows.push_back(got.row(i).data());
      }
      ops::gemm_rows(arows, b, crows, accumulate);
      EXPECT_TRUE(bytes_equal(want, got))
          << s.m << "x" << s.k << "x" << s.n << " accumulate " << accumulate;
    }
  }
}

// ---------- ops::gemm accumulate mode vs the gemv path ----------

// The RNN batch path relies on this: prefilling C rows (bias) and
// accumulating a masked GEMM on top reproduces the accumulate-mode
// gemv exactly, row by row.
TEST(GemmAccumulate, MatchesAccumulatingGemvPerRow) {
  const Matrix a = rand_mat(19, 33, 61, 0.3f);
  const Matrix b = rand_mat(33, 24, 62);
  const Matrix bias = rand_mat(1, 24, 63);
  const std::vector<std::uint32_t> rows = {2, 3, 4, 9, 18};

  Matrix want(19, 24);
  std::vector<float> wrow(24);
  for (const std::uint32_t r : rows) {
    std::copy(bias.row(0).begin(), bias.row(0).end(), wrow.begin());
    ops::gemv(a.row(r), b, wrow, {.accumulate = true});
    std::copy(wrow.begin(), wrow.end(), want.row(r).begin());
  }

  Matrix got(19, 24);
  for (const std::uint32_t r : rows) {
    std::copy(bias.row(0).begin(), bias.row(0).end(), got.row(r).begin());
  }
  ops::gemm(a, b, got, {.rows = rows, .accumulate = true});
  for (const std::uint32_t r : rows) {
    for (std::size_t j = 0; j < 24; ++j) {
      EXPECT_EQ(want(r, j), got(r, j)) << "row " << r << " col " << j;
    }
  }
}

// ---------- batched RNN full updates vs the per-vertex path ----------

TEST(RnnBatch, FullUpdateRowsMatchesPerVertex) {
  for (const char* preset : {"T-GCN", "CD-GCN"}) {  // GRU and LSTM
    const DgnnWeights w =
        DgnnWeights::init(ModelConfig::preset(preset), 12, 7);
    const RnnCell cell(w);
    const std::size_t n = 31;
    const Matrix z = rand_mat(n, cell.input_dim(), 71, 0.2f);
    const Matrix h0 = rand_mat(n, cell.hidden(), 72);
    const Matrix c0 = rand_mat(n, cell.cell_state_dim(), 73);
    const Matrix cache0 = rand_mat(n, cell.cache_dim(), 74);
    std::vector<VertexId> rows;
    for (VertexId v = 0; v < n; v += 2) rows.push_back(v);

    Matrix h_want = h0, c_want = c0, cache_want = cache0;
    OpCounts counts_want;
    for (const VertexId v : rows) {
      cell.full_update(z.row(v), h_want.row(v), c_want.row(v),
                       h_want.row(v), c_want.row(v), cache_want.row(v),
                       counts_want);
    }

    Matrix h_got = h0, c_got = c0, cache_got = cache0;
    OpCounts counts_got;
    RnnBatchScratch ws;
    cell.full_update_rows(z, rows, h_got, c_got, cache_got, ws, counts_got);

    EXPECT_TRUE(h_want == h_got) << preset;
    EXPECT_TRUE(c_want == c_got) << preset;
    EXPECT_TRUE(cache_want == cache_got) << preset;
    EXPECT_EQ(counts_want.macs, counts_got.macs) << preset;
    EXPECT_EQ(counts_want.rnn_full, counts_got.rnn_full) << preset;
    EXPECT_EQ(counts_want.feature_bytes, counts_got.feature_bytes) << preset;
  }
}

// ---------- batched activation kernels ----------

// The polynomial sigmoid/tanh must be bit-identical across ISAs (the
// engine equivalence below depends on it) and within a few ulp of libm
// over the whole gate input range, including the saturation clamps.
TEST(IsaSweep, ActivationsBitExactAndNearLibm) {
  std::vector<float> x;
  for (float v = -30.0f; v <= 30.0f; v += 0.37f) x.push_back(v);
  for (float v : {-200.0f, -88.5f, -1e-6f, 0.0f, 1e-6f, 88.5f, 200.0f}) {
    x.push_back(v);
  }
  const std::size_t n = x.size();
  std::vector<float> sig_s(n), tanh_s(n);
  {
    ScopedIsa isa("scalar");
    ASSERT_TRUE(isa.ok) << isa.error;
    const kernels::VecKernels vk = kernels::registry().vec();
    vk.sigmoid_n(x.data(), n, sig_s.data());
    vk.tanh_n(x.data(), n, tanh_s.data());
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(sig_s[i], 1.0f / (1.0f + std::exp(-x[i])), 2e-7f)
        << "sigmoid(" << x[i] << ")";
    EXPECT_NEAR(tanh_s[i], std::tanh(x[i]), 4e-7f) << "tanh(" << x[i] << ")";
  }
  if (!kernels::CpuFeatures::host().avx2) {
    GTEST_SKIP() << "host has no AVX2; scalar is the only variant";
  }
  std::vector<float> sig_v(n), tanh_v(n);
  {
    ScopedIsa isa("avx2");
    ASSERT_TRUE(isa.ok) << isa.error;
    const kernels::VecKernels vk = kernels::registry().vec();
    vk.sigmoid_n(x.data(), n, sig_v.data());
    vk.tanh_n(x.data(), n, tanh_v.data());
  }
  EXPECT_TRUE(bytes_equal(sig_s, sig_v));
  EXPECT_TRUE(bytes_equal(tanh_s, tanh_v));
}

TEST(RnnBatch, DeltaUpdateRowsMatchesPerVertex) {
  for (const char* preset : {"T-GCN", "CD-GCN"}) {  // GRU and LSTM
    const DgnnWeights w =
        DgnnWeights::init(ModelConfig::preset(preset), 12, 7);
    const RnnCell cell(w);
    const std::size_t n = 29;
    // Dense delta rows with zero lanes sprinkled in (every third lane),
    // as dense_delta would produce them.
    Matrix dx = rand_mat(n, cell.input_dim(), 81, 0.1f);
    Matrix dh = rand_mat(n, cell.hidden(), 82, 0.1f);
    double total_nnz = 0;
    for (Matrix* m : {&dx, &dh}) {
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t j = 0; j < m->cols(); ++j) {
          if (j % 3 == 1) (*m)(r, j) = 0.0f;
        }
      }
    }
    const Matrix h0 = rand_mat(n, cell.hidden(), 83);
    const Matrix c0 = rand_mat(n, cell.cell_state_dim(), 84);
    const Matrix cache0 = rand_mat(n, cell.cache_dim(), 85);
    std::vector<VertexId> rows;
    for (VertexId v = 0; v < n; v += 2) rows.push_back(v);
    for (const VertexId v : rows) {
      for (std::size_t j = 0; j < dx.cols(); ++j) {
        total_nnz += dx(v, j) != 0.0f;
      }
      for (std::size_t j = 0; j < dh.cols(); ++j) {
        total_nnz += dh(v, j) != 0.0f;
      }
    }

    Matrix h_want = h0, c_want = c0, cache_want = cache0;
    OpCounts counts_want;
    for (const VertexId v : rows) {
      cell.delta_update(dx.row(v), dh.row(v), h_want.row(v), c_want.row(v),
                        h_want.row(v), c_want.row(v), cache_want.row(v),
                        counts_want);
    }

    Matrix h_got = h0, c_got = c0, cache_got = cache0;
    OpCounts counts_got;
    RnnBatchScratch ws;
    cell.delta_update_rows(dx, dh, rows, total_nnz, h_got, c_got, cache_got,
                           ws, counts_got);

    // The batch forms each lane sum before folding it onto the cache,
    // so values match the per-lane fold only up to reassociation.
    for (std::size_t i = 0; i < cache_want.size(); ++i) {
      EXPECT_NEAR(cache_want.data()[i], cache_got.data()[i], 1e-4f)
          << preset << " cache idx " << i;
    }
    for (std::size_t i = 0; i < h_want.size(); ++i) {
      EXPECT_NEAR(h_want.data()[i], h_got.data()[i], 1e-4f)
          << preset << " h idx " << i;
    }
    EXPECT_EQ(counts_want.macs, counts_got.macs) << preset;
    EXPECT_EQ(counts_want.delta_nnz, counts_got.delta_nnz) << preset;
    EXPECT_EQ(counts_want.rnn_delta, counts_got.rnn_delta) << preset;
    EXPECT_EQ(counts_want.feature_bytes, counts_got.feature_bytes) << preset;
  }
}

// ---------- blocked RNN row paths vs the staged composition ----------

// The batched paths used to stage both gate products of every listed
// row through n-row matrices (masked ops::gemm), then fold them into
// the cache and derive h/c row by row. The blocked paths must be
// byte-identical to that composition. A zero delta_update derives h/c
// from the cache exactly as the batched paths do (all-zero lanes are
// skipped), so it stands in for the private derivation step.
struct RnnRowsFixture {
  RnnRowsFixture(const char* preset, std::size_t num_rows)
      : w(DgnnWeights::init(ModelConfig::preset(preset), 12, 7)),
        cell(w),
        n(2 * num_rows + 3),
        z(rand_mat(n, cell.input_dim(), 91, 0.2f)),
        h(rand_mat(n, cell.hidden(), 92)),
        c(rand_mat(n, cell.cell_state_dim(), 93)),
        cache(rand_mat(n, cell.cache_dim(), 94)) {
    // Every other row: scattered, ascending.
    for (VertexId v = 0; rows.size() < num_rows; v += 2) rows.push_back(v);
  }

  // Folds staged gate products into the listed cache rows and derives
  // h/c from them, as the batched paths did before blocking.
  void fold_and_derive(const Matrix& xpart, const Matrix& hpart, bool full,
                       Matrix& h_io, Matrix& c_io, Matrix& cache_io) const {
    const std::size_t gh = w.rnn_wx.cols();
    const bool lstm = cell.kind() == RnnKind::kLstm;
    const std::vector<float> zx(cell.input_dim(), 0.0f);
    const std::vector<float> zh(cell.hidden(), 0.0f);
    OpCounts unused;
    for (const VertexId v : rows) {
      float* vc = cache_io.row(v).data();
      const float* xp = xpart.row(v).data();
      const float* hp = hpart.row(v).data();
      for (std::size_t j = 0; j < gh; ++j) {
        if (lstm) {
          vc[j] = full ? xp[j] + hp[j] : (vc[j] + xp[j]) + hp[j];
        } else {
          vc[j] = full ? xp[j] : vc[j] + xp[j];
          vc[gh + j] = full ? hp[j] : vc[gh + j] + hp[j];
        }
      }
      cell.delta_update(zx, zh, h_io.row(v), c_io.row(v), h_io.row(v),
                        c_io.row(v), cache_io.row(v), unused);
    }
  }

  void staged_full(Matrix& h_io, Matrix& c_io, Matrix& cache_io) const {
    const std::size_t gh = w.rnn_wx.cols();
    Matrix xpart(n, gh), hpart(n, gh);
    for (const VertexId v : rows) {
      std::copy(w.rnn_b.data(), w.rnn_b.data() + gh, xpart.row(v).data());
    }
    ops::gemm(z, w.rnn_wx, xpart, {.rows = rows, .accumulate = true});
    ops::gemm(h_io, w.rnn_wh, hpart, {.rows = rows});
    fold_and_derive(xpart, hpart, /*full=*/true, h_io, c_io, cache_io);
  }

  void staged_delta(const Matrix& dx, const Matrix& dh, Matrix& h_io,
                    Matrix& c_io, Matrix& cache_io) const {
    const std::size_t gh = w.rnn_wx.cols();
    Matrix xpart(n, gh), hpart(n, gh);
    ops::gemm(dx, w.rnn_wx, xpart, {.rows = rows});
    ops::gemm(dh, w.rnn_wh, hpart, {.rows = rows});
    fold_and_derive(xpart, hpart, /*full=*/false, h_io, c_io, cache_io);
  }

  DgnnWeights w;
  RnnCell cell;
  std::size_t n;
  Matrix z, h, c, cache;
  std::vector<VertexId> rows;
};

bool counts_equal(const OpCounts& a, const OpCounts& b) {
  return a.macs == b.macs && a.activations == b.activations &&
         a.feature_bytes == b.feature_bytes &&
         a.output_bytes == b.output_bytes && a.delta_nnz == b.delta_nnz &&
         a.rnn_full == b.rnn_full && a.rnn_delta == b.rnn_delta;
}

// Row counts straddle the 16-row block and the 4-row micro-kernel.
constexpr std::size_t kRowCounts[] = {0, 1, 3, 4, 5, 15, 16, 17, 33, 65};

// Runs fn(preset, rows) under every (ISA, thread count) combination.
template <class Fn>
void for_each_rnn_config(Fn&& fn) {
  std::vector<const char*> isas = {"scalar"};
  if (kernels::CpuFeatures::host().avx2) isas.push_back("avx2");
  for (const char* cap : isas) {
    ScopedIsa isa(cap);
    ASSERT_TRUE(isa.ok) << isa.error;
    for (const std::size_t threads : {1u, 4u}) {
      ScopedGlobalThreadPool pool(threads);
      for (const char* preset : {"T-GCN", "CD-GCN"}) {  // GRU and LSTM
        for (const std::size_t num_rows : kRowCounts) {
          SCOPED_TRACE(::testing::Message()
                       << cap << " threads=" << threads << " " << preset
                       << " rows=" << num_rows);
          fn(preset, num_rows);
        }
      }
    }
  }
}

TEST(RnnBatch, BlockedFullRowsMatchStagedComposition) {
  for_each_rnn_config([](const char* preset, std::size_t num_rows) {
    const RnnRowsFixture f(preset, num_rows);
    Matrix h_want = f.h, c_want = f.c, cache_want = f.cache;
    f.staged_full(h_want, c_want, cache_want);

    Matrix h_got = f.h, c_got = f.c, cache_got = f.cache;
    OpCounts counts_got;
    f.cell.full_update_rows(f.z, f.rows, h_got, c_got, cache_got,
                            counts_got);
    EXPECT_TRUE(bytes_equal(h_want, h_got));
    EXPECT_TRUE(bytes_equal(c_want, c_got));
    EXPECT_TRUE(bytes_equal(cache_want, cache_got));
    EXPECT_EQ(counts_got.macs,
              static_cast<double>(num_rows) * f.cell.full_update_macs());
    EXPECT_EQ(counts_got.rnn_full, num_rows);
  });
}

TEST(RnnBatch, BlockedDeltaRowsMatchStagedComposition) {
  for_each_rnn_config([](const char* preset, std::size_t num_rows) {
    const RnnRowsFixture f(preset, num_rows);
    const Matrix dx = rand_mat(f.n, f.cell.input_dim(), 95, 0.3f);
    const Matrix dh = rand_mat(f.n, f.cell.hidden(), 96, 0.3f);
    Matrix h_want = f.h, c_want = f.c, cache_want = f.cache;
    f.staged_delta(dx, dh, h_want, c_want, cache_want);

    Matrix h_got = f.h, c_got = f.c, cache_got = f.cache;
    OpCounts counts_got;
    f.cell.delta_update_rows(dx, dh, f.rows, /*total_nnz=*/7.0, h_got, c_got,
                             cache_got, counts_got);
    EXPECT_TRUE(bytes_equal(h_want, h_got));
    EXPECT_TRUE(bytes_equal(c_want, c_got));
    EXPECT_TRUE(bytes_equal(cache_want, cache_got));
    if (num_rows > 0) {
      const auto gh = static_cast<double>(f.w.rnn_wx.cols());
      EXPECT_EQ(counts_got.macs, 7.0 * gh);
      EXPECT_EQ(counts_got.delta_nnz, 7.0);
      EXPECT_EQ(counts_got.rnn_delta, num_rows);
    }
  });
}

// The engine's fused entry condenses each block's drift into tiles; it
// must equal dense_delta into n-row delta matrices followed by the
// matrix-input delta_update_rows, applied rows and op counts included.
TEST(RnnBatch, FusedCondenseMatchesDenseDeltaThenRows) {
  for_each_rnn_config([](const char* preset, std::size_t num_rows) {
    const RnnRowsFixture f(preset, num_rows);
    const float eps = 0.3f;  // drops a share of the lanes
    const Matrix z_applied = rand_mat(f.n, f.cell.input_dim(), 97, 0.1f);
    const Matrix h_applied = rand_mat(f.n, f.cell.hidden(), 98, 0.1f);

    Matrix h_want = f.h, c_want = f.c, cache_want = f.cache;
    Matrix za_want = z_applied, ha_want = h_applied;
    Matrix dx(f.n, f.cell.input_dim()), dh(f.n, f.cell.hidden());
    std::size_t nnz = 0;
    for (const VertexId v : f.rows) {
      nnz += dense_delta(f.z.row(v), za_want.row(v), eps, dx.row(v));
      nnz += dense_delta(h_want.row(v), ha_want.row(v), eps, dh.row(v));
    }
    OpCounts counts_want;
    f.cell.delta_update_rows(dx, dh, f.rows, static_cast<double>(nnz),
                             h_want, c_want, cache_want, counts_want);

    Matrix h_got = f.h, c_got = f.c, cache_got = f.cache;
    Matrix za_got = z_applied, ha_got = h_applied;
    OpCounts counts_got;
    f.cell.delta_update_rows(f.z, za_got, ha_got, eps, f.rows, h_got, c_got,
                             cache_got, counts_got);
    EXPECT_TRUE(bytes_equal(h_want, h_got));
    EXPECT_TRUE(bytes_equal(c_want, c_got));
    EXPECT_TRUE(bytes_equal(cache_want, cache_got));
    EXPECT_TRUE(bytes_equal(za_want, za_got));
    EXPECT_TRUE(bytes_equal(ha_want, ha_got));
    EXPECT_TRUE(counts_equal(counts_want, counts_got));
  });
}

// Delta blocks pick the zero-skipping accumulate kernels or the
// register tiles from their kept-lane count; both must give the bytes
// of the staged (register-tile) composition. Densities straddle the
// switch (RnnCell::kSparseBlockShare), 1.0 feeds the matrix-input entry
// fully dense rows, zero lanes alternate +0.0 and -0.0, and a share of
// the cache entries is -0.0; kRowCounts ends blocks partway.
TEST(RnnBatch, SparseAndDenseDeltaBlocksMatchStagedComposition) {
  for_each_rnn_config([](const char* preset, std::size_t num_rows) {
    RnnRowsFixture f(preset, num_rows);
    for (std::size_t i = 0; i < f.cache.size(); i += 5) {
      f.cache.data()[i] = -0.0f;
    }
    for (const double density : {0.0, 0.01, 0.1, 0.24, 0.3, 0.6, 1.0}) {
      Rng rng(static_cast<std::uint64_t>(density * 1000) + num_rows);
      Matrix dx(f.n, f.cell.input_dim()), dh(f.n, f.cell.hidden());
      for (Matrix* m : {&dx, &dh}) {
        for (std::size_t i = 0; i < m->size(); ++i) {
          m->data()[i] = rng.chance(density) ? rng.normal()
                                             : (i % 2 == 0 ? 0.0f : -0.0f);
        }
      }
      Matrix h_want = f.h, c_want = f.c, cache_want = f.cache;
      f.staged_delta(dx, dh, h_want, c_want, cache_want);

      Matrix h_got = f.h, c_got = f.c, cache_got = f.cache;
      OpCounts counts_got;
      f.cell.delta_update_rows(dx, dh, f.rows, /*total_nnz=*/1.0, h_got,
                               c_got, cache_got, counts_got);
      EXPECT_TRUE(bytes_equal(h_want, h_got)) << "density " << density;
      EXPECT_TRUE(bytes_equal(c_want, c_got)) << "density " << density;
      EXPECT_TRUE(bytes_equal(cache_want, cache_got))
          << "density " << density;
    }
  });
}

// Which kernel a delta block ran is visible through a weight row of
// Inf under an input lane that is zero in every row: the register tile
// computes 0 * Inf = NaN into the cache, the skip path leaves the lane
// out. So a 16-row block keeping kSparseBlockShare-th of its lanes must
// stay finite and one more kept lane must not — through both entries,
// with the kept lanes counted from the rows themselves.
TEST(RnnBatch, DeltaBlockKernelFollowsKeptLanes) {
  for (const char* preset : {"T-GCN", "CD-GCN"}) {
    DgnnWeights w = DgnnWeights::init(ModelConfig::preset(preset), 12, 7);
    for (std::size_t j = 0; j < w.rnn_wx.cols(); ++j) {
      w.rnn_wx(0, j) = std::numeric_limits<float>::infinity();
    }
    const RnnCell cell(w);
    const std::size_t m = RnnCell::kBlockRows;
    const std::size_t dz = cell.input_dim();
    const std::size_t limit = m * (dz + cell.hidden()) /
                              RnnCell::kSparseBlockShare;
    std::vector<VertexId> rows;
    for (VertexId v = 0; v < m; ++v) rows.push_back(v);
    const Matrix z = rand_mat(m, dz, 31);
    const Matrix h0 = rand_mat(m, cell.hidden(), 32);
    const Matrix c0 = rand_mat(m, cell.cell_state_dim(), 33);
    const Matrix cache0 = rand_mat(m, cell.cache_dim(), 34);
    for (const std::size_t kept : {limit, limit + 1}) {
      // `kept` drifted lanes spread over input lanes 1..dz-1.
      Matrix dx(m, dz), dh(m, cell.hidden()), z_applied = z;
      for (std::size_t i = 0; i < kept; ++i) {
        const std::size_t v = i % m, j = 1 + i / m;
        ASSERT_LT(j, dz);
        dx(v, j) = 1.0f;
        z_applied(v, j) = z(v, j) - 1.0f;
      }
      const bool sparse = kept == limit;
      auto no_nan = [](const Matrix& a) {
        return std::all_of(a.data(), a.data() + a.size(),
                           [](float x) { return !std::isnan(x); });
      };
      Matrix h = h0, c = c0, cache = cache0;
      OpCounts counts;
      cell.delta_update_rows(dx, dh, rows, static_cast<double>(kept), h, c,
                             cache, counts);
      EXPECT_EQ(no_nan(cache), sparse) << preset << " kept " << kept;

      Matrix h2 = h0, c2 = c0, cache2 = cache0, za = z_applied;
      Matrix ha = h0;
      OpCounts counts2;
      cell.delta_update_rows(z, za, ha, /*eps=*/0.01f, rows, h2, c2, cache2,
                             counts2);
      EXPECT_EQ(no_nan(cache2), sparse) << preset << " fused kept " << kept;
      EXPECT_EQ(counts2.delta_nnz, static_cast<double>(kept));
    }
  }
}

// ---------- forced-scalar engine equivalence ----------

// The whole engine stack must produce value-identical outputs whichever
// ISA serves the kernels — the CI forced-scalar leg runs the full test
// suite under TAGNN_KERNEL_ISA=scalar and relies on this.
TEST(KernelRegistry, EngineOutputsIsaIndependent) {
  if (!kernels::CpuFeatures::host().avx2) {
    GTEST_SKIP() << "host has no AVX2; scalar is the only variant";
  }
  const DynamicGraph g = datasets::load("GT", 0.25, 4);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 3);
  auto run = [&](const char* cap) {
    ScopedIsa isa(cap);
    EXPECT_TRUE(isa.ok) << isa.error;
    EngineOptions opts;
    opts.window_size = 2;
    return ConcurrentEngine(opts).run(g, w);
  };
  const EngineResult rs = run("scalar");
  const EngineResult rv = run("avx2");
  ASSERT_EQ(rs.outputs.size(), rv.outputs.size());
  for (std::size_t t = 0; t < rs.outputs.size(); ++t) {
    EXPECT_TRUE(rs.outputs[t] == rv.outputs[t]) << "snapshot " << t;
  }
  EXPECT_TRUE(rs.final_hidden == rv.final_hidden);
  EXPECT_EQ(rs.rnn_counts.rnn_skip, rv.rnn_counts.rnn_skip);
  EXPECT_EQ(rs.gnn_counts.macs, rv.gnn_counts.macs);
}

}  // namespace
}  // namespace tagnn
