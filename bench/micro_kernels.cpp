// Google-benchmark microbenchmarks of the hot kernels and storage
// formats: per-snapshot neighbour traversal under CSR / PMA / O-CSR,
// GCN layer forward, RNN cell updates (per vertex and the engine's
// batched row paths), accumulate-mode row GEMMs, the Condense Unit, PMA
// updates. These complement the figure benches with real wall-clock
// numbers for the library itself.
#include <benchmark/benchmark.h>

#include "common/thread_pool.hpp"
#include "graph/datasets.hpp"
#include "graph/formats.hpp"
#include "nn/condense.hpp"
#include "nn/gcn.hpp"
#include "nn/rnn.hpp"
#include "obs/metrics.hpp"
#include "tensor/ops.hpp"

namespace tagnn {
namespace {

struct FormatFixtures {
  DynamicGraph g = datasets::load("GT", 0.3, 4);
  Window w{0, 4};
  WindowClassification cls = classify_window(g, w);
  AffectedSubgraph sub = extract_affected_subgraph(g, w, cls);
  OCsr ocsr = OCsr::build(g, w, cls, sub);
  PmaWindowStore pma{g, w};
};

FormatFixtures& fixtures() {
  static FormatFixtures f;
  return f;
}

void BM_TraverseCsrWindow(benchmark::State& state) {
  auto& f = fixtures();
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (SnapshotId t = f.w.start; t < f.w.end(); ++t) {
      const CsrGraph& s = f.g.snapshot(t).graph;
      for (VertexId v = 0; v < f.g.num_vertices(); ++v) {
        for (VertexId u : s.neighbors(v)) sum += u;
      }
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_TraverseCsrWindow);

void BM_TraversePmaWindow(benchmark::State& state) {
  auto& f = fixtures();
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (SnapshotId t = f.w.start; t < f.w.end(); ++t) {
      for (VertexId v = 0; v < f.g.num_vertices(); ++v) {
        f.pma.for_each_neighbor(v, t, [&](VertexId u) { sum += u; });
      }
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_TraversePmaWindow);

void BM_TraverseOcsr(benchmark::State& state) {
  auto& f = fixtures();
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (std::size_t r = 0; r < f.ocsr.num_sources(); ++r) {
      for (VertexId u : f.ocsr.targets(r)) sum += u;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_TraverseOcsr);

void BM_GcnLayerForward(benchmark::State& state) {
  auto& f = fixtures();
  Rng rng(1);
  const Matrix w = Matrix::random(f.g.feature_dim(), 32, rng);
  Matrix out;
  for (auto _ : state) {
    OpCounts counts;
    gcn_layer_forward(f.g.snapshot(0), f.g.snapshot(0).features, w, {}, out,
                      counts);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GcnLayerForward);

void BM_RnnFullUpdate(benchmark::State& state) {
  ModelConfig cfg = ModelConfig::preset("T-GCN");
  const DgnnWeights w = DgnnWeights::init(cfg, cfg.gnn_hidden, 3);
  const RnnCell cell(w);
  std::vector<float> x(cell.input_dim(), 0.5f), h(cell.hidden()),
      c(cell.cell_state_dim()), cache(cell.cache_dim());
  OpCounts counts;
  for (auto _ : state) {
    cell.full_update(x, h, c, h, c, cache, counts);
    benchmark::DoNotOptimize(h.data());
  }
}
BENCHMARK(BM_RnnFullUpdate);

void BM_RnnDeltaUpdate(benchmark::State& state) {
  ModelConfig cfg = ModelConfig::preset("T-GCN");
  const DgnnWeights w = DgnnWeights::init(cfg, cfg.gnn_hidden, 3);
  const RnnCell cell(w);
  std::vector<float> dx(cell.input_dim(), 0.0f), dh(cell.hidden(), 0.0f),
      h(cell.hidden()), c(cell.cell_state_dim()), cache(cell.cache_dim());
  dx[0] = dx[7] = 0.1f;  // sparse delta
  OpCounts counts;
  for (auto _ : state) {
    cell.delta_update(dx, dh, h, c, h, c, cache, counts);
    benchmark::DoNotOptimize(h.data());
  }
}
BENCHMARK(BM_RnnDeltaUpdate);

// The concurrent engine's RNN phase: one T-GCN cell over a batch of
// kRnnRows listed rows. z/h rows of 32 + 48 lanes, as in the presets.
constexpr std::size_t kRnnRows = 1024;

struct RnnRowsFixture {
  explicit RnnRowsFixture(double lane_density)
      : w(DgnnWeights::init(ModelConfig::preset("T-GCN"), 32, 3)),
        cell(w),
        z(kRnnRows, cell.input_dim()),
        h(kRnnRows, cell.hidden()),
        c(kRnnRows, cell.cell_state_dim()),
        cache(kRnnRows, cell.cache_dim()),
        dx(kRnnRows, cell.input_dim()),
        dh(kRnnRows, cell.hidden()) {
    Rng rng(5);
    for (Matrix* m : {&z, &h, &cache}) {
      for (std::size_t i = 0; i < m->size(); ++i) m->data()[i] = rng.normal();
    }
    // Delta rows hold `lane_density` non-zero lanes, as dense_delta
    // leaves them.
    for (Matrix* m : {&dx, &dh}) {
      for (std::size_t i = 0; i < m->size(); ++i) {
        if (rng.chance(lane_density)) {
          m->data()[i] = 0.01f * rng.normal();
          nnz += 1;
        }
      }
    }
    for (std::size_t v = 0; v < kRnnRows; ++v) {
      rows.push_back(static_cast<VertexId>(v));
    }
  }

  DgnnWeights w;
  RnnCell cell;
  Matrix z, h, c, cache, dx, dh;
  std::vector<VertexId> rows;
  double nnz = 0;
};

// Condense Unit over one z row and one h row per vertex.
void BM_DenseDelta(benchmark::State& state) {
  RnnRowsFixture f(0.0);
  Matrix za = f.z, ha = f.h;
  Rng rng(9);
  for (std::size_t i = 0; i < za.size(); ++i) {
    za.data()[i] += 0.02f * rng.normal();
  }
  const Matrix za0 = za;
  for (auto _ : state) {
    std::size_t nnz = 0;
    for (std::size_t v = 0; v < kRnnRows; ++v) {
      nnz += dense_delta(f.z.row(v), za.row(v), 0.01f, f.dx.row(v));
      nnz += dense_delta(f.h.row(v), ha.row(v), 0.01f, f.dh.row(v));
    }
    benchmark::DoNotOptimize(nnz);
    benchmark::DoNotOptimize(f.dx.data());
    benchmark::DoNotOptimize(f.dh.data());
    benchmark::ClobberMemory();
    state.PauseTiming();
    za = za0;  // restore the drift the next pass condenses
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kRnnRows);
}
BENCHMARK(BM_DenseDelta);

void BM_RnnFullUpdateRows(benchmark::State& state) {
  RnnRowsFixture f(0.0);
  OpCounts counts;
  for (auto _ : state) {
    f.cell.full_update_rows(f.z, f.rows, f.h, f.c, f.cache, counts);
    benchmark::DoNotOptimize(f.h.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRnnRows);
}
// The row paths fan out over the global pool: time the wall clock.
BENCHMARK(BM_RnnFullUpdateRows)->UseRealTime();

// Arg: kept-lane density of the delta rows in per mille — 860 as on
// fk-tgcn, 2 as on ml-cdgcn.
void BM_RnnDeltaUpdateRows(benchmark::State& state) {
  RnnRowsFixture f(static_cast<double>(state.range(0)) / 1000.0);
  OpCounts counts;
  for (auto _ : state) {
    f.cell.delta_update_rows(f.dx, f.dh, f.rows, f.nnz, f.h, f.c, f.cache,
                             counts);
    benchmark::DoNotOptimize(f.h.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRnnRows);
}
BENCHMARK(BM_RnnDeltaUpdateRows)->Arg(860)->Arg(2)->UseRealTime();

// ops::gemm_rows on dense rows in 16-row blocks, as the RNN phase
// drives it. Args: k x n of the gate panel (32 x 144 as T-GCN's Wx,
// 80 x 192 as CD-GCN's) and the mode: 1 = accumulate (the zero-skip
// micro_* kernels, as a full update's x-part onto the bias), 0 = the
// register-tile kernels. One pool thread; gemm_rows itself is serial.
void BM_GemmRows(benchmark::State& state) {
  ScopedGlobalThreadPool pool(1);
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const bool accumulate = state.range(2) != 0;
  Rng rng(7);
  const Matrix a = Matrix::random(kRnnRows, k, rng, 1.0f);
  const Matrix b = Matrix::random(k, n, rng, 1.0f);
  Matrix c(kRnnRows, n);
  constexpr std::size_t kBlock = RnnCell::kBlockRows;
  for (auto _ : state) {
    for (std::size_t r0 = 0; r0 < kRnnRows; r0 += kBlock) {
      const float* ar[kBlock];
      float* cr[kBlock];
      for (std::size_t i = 0; i < kBlock; ++i) {
        ar[i] = a.row(r0 + i).data();
        cr[i] = c.row(r0 + i).data();
      }
      ops::gemm_rows({ar, kBlock}, b, {cr, kBlock}, accumulate);
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRnnRows);
}
BENCHMARK(BM_GemmRows)
    ->Args({32, 144, 1})
    ->Args({80, 192, 1})
    ->Args({32, 144, 0})
    ->Args({80, 192, 0});

void BM_PmaInsert(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    state.PauseTiming();
    Pma p(64);
    state.ResumeTiming();
    for (int i = 0; i < 10000; ++i) {
      p.insert_or_merge(rng.next_u64() >> 16, 1);
    }
    benchmark::DoNotOptimize(p.size());
  }
}
BENCHMARK(BM_PmaInsert);

void BM_ClassifyWindow(benchmark::State& state) {
  auto& f = fixtures();
  for (auto _ : state) {
    auto cls = classify_window(f.g, f.w);
    benchmark::DoNotOptimize(cls.clazz.data());
  }
}
BENCHMARK(BM_ClassifyWindow);

// Telemetry overhead: one counter increment and one histogram sample
// per iteration, with the runtime switch on vs. off. The "off" variant
// must measure as a bare branch (nanoseconds), demonstrating that
// instrumented hot paths cost nothing when telemetry is disabled.
void BM_TelemetryCounterEnabled(benchmark::State& state) {
  auto& reg = obs::MetricsRegistry::global();
  const obs::MetricId c = reg.counter("bench.telemetry.counter");
  const obs::MetricId h = reg.histogram("bench.telemetry.hist");
  obs::ScopedTelemetryEnabled on(true);
  for (auto _ : state) {
    reg.add(c);
    reg.record(h, 42.0);
  }
}
BENCHMARK(BM_TelemetryCounterEnabled);

void BM_TelemetryCounterDisabled(benchmark::State& state) {
  auto& reg = obs::MetricsRegistry::global();
  const obs::MetricId c = reg.counter("bench.telemetry.counter");
  const obs::MetricId h = reg.histogram("bench.telemetry.hist");
  obs::ScopedTelemetryEnabled off(false);
  for (auto _ : state) {
    reg.add(c);
    reg.record(h, 42.0);
  }
}
BENCHMARK(BM_TelemetryCounterDisabled);

}  // namespace
}  // namespace tagnn

BENCHMARK_MAIN();
