#include "replay.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "graph/affected_subgraph.hpp"
#include "graph/classify.hpp"
#include "graph/ocsr.hpp"
#include "nn/cell_skip.hpp"
#include "nn/condense.hpp"
#include "nn/rnn.hpp"
#include "nn/similarity.hpp"
#include "tensor/ops.hpp"
#include "tensor/spmm.hpp"

namespace perfbench {

using namespace tagnn;

namespace {

double snapshot_bytes(const Snapshot& s) {
  return static_cast<double>((s.graph.offsets().size()) * sizeof(EdgeId) +
                             s.graph.num_edges() * sizeof(VertexId) +
                             s.features.size() * sizeof(float));
}

// One GCN layer over `rows` (empty = every vertex), as gcn_layer_forward
// computes it: mean aggregation, combination, optional ReLU.
void gcn_layer(const Snapshot& snap, const Matrix& in, const Matrix& w,
               const std::vector<VertexId>* rows, bool relu_out, Matrix& agg,
               Matrix& out, ReplayStats& st, Tracer* tr) {
  const VertexId n = snap.num_vertices();
  if (out.rows() != n || out.cols() != w.cols()) out = Matrix(n, w.cols());
  if (agg.rows() != n || agg.cols() != w.rows()) agg = Matrix(n, w.rows());
  const std::size_t count = rows != nullptr ? rows->size() : n;
  if (count == 0) return;
  const std::span<const VertexId> sel =
      (rows == nullptr || count == n) ? std::span<const VertexId>{}
                                      : std::span<const VertexId>(*rows);
  double edges = 0;
  auto each_row = [&](auto&& fn) {
    if (sel.empty()) {
      for (VertexId v = 0; v < n; ++v) fn(v);
    } else {
      for (VertexId v : sel) fn(v);
    }
  };
  each_row([&](VertexId v) { edges += snap.graph.degree(v); });
  {
    ScopedSpan s(tr, "tensor.spmm");
    spmm_mean_csr(snap.graph.offsets(), snap.graph.neighbor_array(),
                  snap.present, in, sel, agg);
  }
  {
    ScopedSpan s(tr, "tensor.gemm");
    ops::gemm(agg, w, out, {.rows = sel});
  }
  if (relu_out) {
    ScopedSpan s(tr, "tensor.act");
    each_row([&](VertexId v) { relu(out.row(v)); });
  }
  const auto c = static_cast<double>(count);
  const auto d_in = static_cast<double>(w.rows());
  st.gemm_macs += c * d_in * static_cast<double>(w.cols());
  // Gathered rows + written rows, plus the CSR offsets/neighbours read.
  st.spmm_bytes += (edges + c) * d_in * 4.0 + c * d_in * 4.0 +
                   edges * 4.0 + c * 8.0;
  st.gnn_computed += c;
}

}  // namespace

ReplayStats replay_concurrent(const DynamicGraph& g, const DgnnWeights& w,
                              const EngineOptions& opts, Tracer* tr) {
  ScopedSpan root(tr, "replay");
  ReplayStats st;
  const VertexId n = g.num_vertices();
  const std::size_t layers = w.config.gnn_layers;
  const RnnCell cell(w);
  Matrix h(n, cell.hidden()), c(n, cell.cell_state_dim()),
      cache(n, cell.cache_dim());
  Matrix z_applied(n, w.config.gnn_hidden), h_applied(n, cell.hidden());
  Matrix delta_x(n, cell.input_dim()), delta_h(n, cell.hidden());
  Matrix agg;
  RnnBatchScratch rnn_ws;
  std::vector<Matrix> cur(opts.window_size), nxt(opts.window_size);
  std::vector<std::uint8_t> mode(n);
  constexpr std::uint8_t kAbsent = 255;
  std::vector<VertexId> full_rows, delta_rows;
  const auto total = static_cast<SnapshotId>(g.num_snapshots());

  for (SnapshotId start = 0; start < total; start += opts.window_size) {
    const Window win{start,
                     std::min<SnapshotId>(opts.window_size, total - start)};
    const std::size_t k = win.length;

    WindowClassification cls;
    {
      ScopedSpan s(tr, "graph.classify");
      cls = classify_window(g, win);
    }
    std::vector<std::vector<VertexId>> changed(layers), unchanged(layers);
    if (opts.gnn_reuse) {
      ScopedSpan s(tr, "graph.unchanged");
      const auto mask = unchanged_per_layer(g, win, cls, layers);
      for (std::size_t l = 0; l < layers; ++l) {
        for (VertexId v = 0; v < n; ++v) {
          (mask[l][v] ? unchanged : changed)[l].push_back(v);
        }
      }
    }
    AffectedSubgraph sub;
    {
      ScopedSpan s(tr, "graph.subgraph");
      sub = extract_affected_subgraph(g, win, cls);
    }
    {
      ScopedSpan s(tr, "graph.ocsr_build");
      const OCsr ocsr = OCsr::build(g, win, cls, sub);
      st.ocsr_bytes += static_cast<double>(ocsr.bytes());
    }
    st.vertex_windows += n;
    st.unaffected += static_cast<double>(cls.count(VertexClass::kUnaffected));
    st.subgraph += static_cast<double>(sub.size());
    for (std::size_t tk = 0; tk < k; ++tk) {
      st.snapshot_bytes += snapshot_bytes(g.snapshot(win.start + tk));
    }

    for (std::size_t l = 0; l < layers; ++l) {
      for (std::size_t tk = 0; tk < k; ++tk) {
        ScopedSpan s(tr, "nn.gcn_layer");
        const Snapshot& snap = g.snapshot(win.start + tk);
        const Matrix& in = l == 0 ? snap.features : cur[tk];
        const bool reuse = opts.gnn_reuse && tk > 0;
        gcn_layer(snap, in, w.gnn[l], reuse ? &changed[l] : nullptr,
                  l + 1 < layers, agg, nxt[tk], st, tr);
        if (reuse) {
          for (VertexId v : unchanged[l]) copy(nxt[0].row(v), nxt[tk].row(v));
          st.gnn_reused += static_cast<double>(unchanged[l].size());
        }
      }
      std::swap(cur, nxt);
    }

    for (std::size_t tk = 0; tk < k; ++tk) {
      const SnapshotId t = win.start + static_cast<SnapshotId>(tk);
      const Snapshot& snap = g.snapshot(t);
      const Matrix& z = cur[tk];
      const Snapshot* prev = t > 0 ? &g.snapshot(t - 1) : nullptr;
      OpCounts counts;
      {
        ScopedSpan s(tr, "nn.similarity");
        for (VertexId v = 0; v < n; ++v) {
          if (!snap.present[v]) {
            mode[v] = kAbsent;
            continue;
          }
          CellMode m = CellMode::kFull;
          if (opts.cell_skip && t >= opts.skip_warmup_snapshots && t > 0) {
            if (tk > 0 && cls.is_unaffected(v)) {
              m = CellMode::kSkip;
            } else {
              const float theta = similarity_score(
                  z_applied.row(v), z.row(v), prev->graph.neighbors(v),
                  snap.graph.neighbors(v), cls.clazz, &counts);
              m = decide_cell_mode(theta, opts.thresholds);
            }
          }
          mode[v] = static_cast<std::uint8_t>(m);
        }
      }
      full_rows.clear();
      delta_rows.clear();
      for (VertexId v = 0; v < n; ++v) {
        if (mode[v] == kAbsent) continue;
        switch (static_cast<CellMode>(mode[v])) {
          case CellMode::kSkip:
            st.rnn_skip += 1;
            break;
          case CellMode::kDelta:
            delta_rows.push_back(v);
            break;
          case CellMode::kFull:
            full_rows.push_back(v);
            break;
        }
      }
      st.rnn_delta += static_cast<double>(delta_rows.size());
      st.rnn_full += static_cast<double>(full_rows.size());
      if (!delta_rows.empty()) {
        std::size_t nnz = 0;
        {
          ScopedSpan s(tr, "nn.condense");
          for (VertexId v : delta_rows) {
            nnz += dense_delta(z.row(v), z_applied.row(v), opts.delta_eps,
                               delta_x.row(v));
            nnz += dense_delta(h.row(v), h_applied.row(v), opts.delta_eps,
                               delta_h.row(v));
          }
        }
        ScopedSpan s(tr, "nn.rnn_delta");
        cell.delta_update_rows(delta_x, delta_h, delta_rows,
                               static_cast<double>(nnz), h, c, cache, rnn_ws,
                               counts);
      }
      if (!full_rows.empty()) {
        {
          ScopedSpan s(tr, "nn.rnn_apply");
          for (VertexId v : full_rows) copy(h.row(v), h_applied.row(v));
        }
        {
          ScopedSpan s(tr, "nn.rnn_full");
          cell.full_update_rows(z, full_rows, h, c, cache, rnn_ws, counts);
        }
        ScopedSpan s(tr, "nn.rnn_apply");
        for (VertexId v : full_rows) copy(z.row(v), z_applied.row(v));
      }
    }
  }
  st.final_hidden = h;
  return st;
}

}  // namespace perfbench
