// Topology-aware concurrent DGNN inference (TaGNN-S, paper section 3).
//
// Per window of K snapshots:
//   1. classify vertices, derive per-layer unchanged sets, extract the
//      affected subgraph and build the O-CSR  (overhead phase);
//   2. charge each stored feature row once, weights once per window
//      (load phase);
//   3. run the GCN stack over all K snapshots, computing unchanged
//      vertices only at the window's first snapshot and copying their
//      rows elsewhere (gnn phase);
//   4. run the RNN with similarity-aware cell skipping (rnn phase).
//
// With opts_.pipeline_windows the overhead phase of window i+1 runs on
// a helper thread while window i's GNN/RNN compute proceeds — the
// software analogue of the accelerator's MSDL prefetch. Every overhead
// artefact is a pure function of the immutable snapshots, so the
// pipelined schedule is byte-identical to the serial one.
#include <algorithm>
#include <cstdint>
#include <future>

#include "common/thread_pool.hpp"
#include "graph/affected_subgraph.hpp"
#include "graph/ocsr.hpp"
#include "nn/engine.hpp"
#include "nn/engine_detail.hpp"
#include "nn/gcn.hpp"
#include "nn/similarity.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "tensor/ops.hpp"

namespace tagnn {
namespace {

// Everything the overhead phase derives for one window.
struct WindowOverhead {
  WindowClassification cls;
  std::vector<std::vector<bool>> unchanged;  // per layer (gnn_reuse only)
  // The same per-layer sets as ascending row lists, so the compute
  // phase iterates/copies exactly the rows it needs instead of
  // re-scanning an n-wide mask per (layer, snapshot).
  std::vector<std::vector<VertexId>> changed_rows;
  std::vector<std::vector<VertexId>> unchanged_rows;
  AffectedSubgraph sub;
  OCsr ocsr;
  double seconds = 0;  // CPU seconds spent deriving the artefacts
};

WindowOverhead compute_overhead(const DynamicGraph& g, Window w,
                                bool gnn_reuse, std::size_t layers) {
  WindowOverhead ov;
  // Accumulates into the window-local ov.seconds (not the shared result
  // struct): in pipelined mode this runs on a helper thread.
  obs::ScopedTimer timer(&ov.seconds, "concurrent.overhead", "engine",
                         "tagnn.engine.overhead_seconds");
  ov.cls = classify_window(g, w);
  if (gnn_reuse) {
    ov.unchanged = unchanged_per_layer(g, w, ov.cls, layers);
    const VertexId n = g.num_vertices();
    ov.changed_rows.resize(layers);
    ov.unchanged_rows.resize(layers);
    for (std::size_t l = 0; l < layers; ++l) {
      for (VertexId v = 0; v < n; ++v) {
        (ov.unchanged[l][v] ? ov.unchanged_rows : ov.changed_rows)[l]
            .push_back(v);
      }
    }
  }
  ov.sub = extract_affected_subgraph(g, w, ov.cls);
  ov.ocsr = OCsr::build(g, w, ov.cls, ov.sub);
  return ov;
}

// Charges the feature traffic of one GCN layer over one snapshot under
// the O-CSR streaming model: rows whose content is window-stable at
// this layer are fetched once per window (window_seen), other rows once
// per snapshot; repeated gathers hit the on-chip buffer. A per-snapshot
// charge of a row that is bitwise identical (std::equal's ==) to the
// previous snapshot's input `prev_in` is the residual redundancy
// TaGNN-S still pays (Fig. 8(b)); only such charged rows are compared,
// and none when `prev_in` is null.
//
// When every row is computed (`compute_rows` null) every vertex
// gathers at least itself, so the touched set is all of V and is
// charged in O(n) without walking the edges. Otherwise the changed
// rows' gathers are walked: `snap_stamp`/`epoch` replace a per-call
// seen-bitmap (a row counts as gathered this call iff its stamp equals
// the caller's fresh epoch), so the scratch is reused across every
// (layer, snapshot) without clearing or reallocating.
void charge_concurrent_traffic(const Snapshot& snap,
                               const std::vector<VertexId>* compute_rows,
                               const std::vector<bool>& stable_row,
                               const Matrix& in, const Matrix* prev_in,
                               std::vector<bool>& window_seen,
                               std::vector<std::uint32_t>& snap_stamp,
                               std::uint32_t epoch, OpCounts& counts) {
  const VertexId n = snap.num_vertices();
  const std::size_t d_in = in.cols();
  double rows = 0, redundant = 0;
  auto touch = [&](VertexId u) {
    if (stable_row[u]) {
      if (!window_seen[u]) {
        window_seen[u] = true;
        rows += 1;
      }
    } else if (snap_stamp[u] != epoch) {
      snap_stamp[u] = epoch;
      rows += 1;
      if (prev_in != nullptr) {
        const float* x = in.row(u).data();
        if (std::equal(x, x + d_in, prev_in->row(u).data())) redundant += 1;
      }
    }
  };
  if (compute_rows != nullptr) {
    for (const VertexId v : *compute_rows) {
      touch(v);
      for (VertexId u : snap.graph.neighbors(v)) touch(u);
    }
  } else {
    for (VertexId v = 0; v < n; ++v) touch(v);
  }
  counts.feature_bytes += rows * static_cast<double>(d_in) * 4.0;
  counts.redundant_bytes += redundant * static_cast<double>(d_in) * 4.0;
}

}  // namespace

EngineResult ConcurrentEngine::run(const DynamicGraph& g,
                                   const DgnnWeights& weights) const {
  return run(g, weights, nullptr);
}

EngineResult ConcurrentEngine::run(const DynamicGraph& g,
                                   const DgnnWeights& weights,
                                   StreamCarry* carry) const {
  const VertexId n = g.num_vertices();
  TAGNN_CHECK(g.feature_dim() == weights.gnn.front().rows());
  TAGNN_CHECK(opts_.window_size >= 1);
  const std::size_t layers = weights.config.gnn_layers;
  const RnnCell cell(weights);
  detail::RnnState st(n, cell);

  EngineResult res;
  // Last input / hidden state actually folded into each vertex's gate
  // cache: skips leave them untouched, so a later delta update applies
  // the *total* drift since the last applied values, not just the last
  // step's.
  Matrix z_applied(n, weights.config.gnn_hidden);
  Matrix h_applied(n, cell.hidden());
  SnapshotId global_offset = 0;
  if (carry != nullptr && carry->h.rows() == n) {
    st.h = carry->h;
    st.c = carry->c;
    st.cache = carry->cache;
    z_applied = carry->z_applied;
    h_applied = carry->h_applied;
    global_offset = carry->global_offset;
  }

  const auto total = static_cast<SnapshotId>(g.num_snapshots());
  GcnScratch scratch;
  // Scratch reused across windows so the steady-state loop allocates
  // nothing per (layer, snapshot): layer activations, traffic stamps,
  // and the RNN mode/partition buffers.
  std::vector<Matrix> cur(opts_.window_size), nxt(opts_.window_size);
  std::vector<bool> window_seen;
  std::vector<std::uint32_t> snap_stamp(n, 0);
  std::uint32_t snap_epoch = 0;
  constexpr std::uint8_t kAbsent = 255;
  std::vector<std::uint8_t> mode(n);
  std::vector<VertexId> full_rows, delta_rows;
  std::future<WindowOverhead> prefetched;
  for (SnapshotId start = 0; start < total; start += opts_.window_size) {
    const Window w{start,
                   std::min<SnapshotId>(opts_.window_size, total - start)};
    const std::size_t k = w.length;

    // ---- Overhead phase: classification + subgraph + O-CSR. ----
    // Window 0 (and every window in serial mode) computes inline; the
    // pipelined schedule finds its artefacts already prefetched and
    // immediately kicks off the next window's on a helper thread.
    const WindowOverhead ov =
        prefetched.valid() ? prefetched.get()
                           : compute_overhead(g, w, opts_.gnn_reuse, layers);
    res.seconds.overhead += ov.seconds;
    if (opts_.pipeline_windows && start + opts_.window_size < total) {
      const SnapshotId ns = start + opts_.window_size;
      const Window nw{ns, std::min<SnapshotId>(opts_.window_size, total - ns)};
      prefetched = std::async(
          std::launch::async, [&g, nw, reuse = opts_.gnn_reuse, layers] {
            return compute_overhead(g, nw, reuse, layers);
          });
    }
    const WindowClassification& cls = ov.cls;
    const std::vector<std::vector<bool>>& unchanged = ov.unchanged;
    const OCsr& ocsr = ov.ocsr;

    // ---- Load phase: stored rows once, weights once per window. ----
    obs::ScopedTimer t_load(&res.seconds.load, "concurrent.load", "engine",
                            "tagnn.engine.load_seconds");
    res.load_counts.structure_bytes += ocsr.structure_bytes();
    res.load_counts.feature_bytes += ocsr.feature_bytes();
    // Unaffected vertices outside the O-CSR still stream in once.
    std::size_t outside_rows = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (!ocsr.has_feature(v, w.start)) ++outside_rows;
    }
    res.load_counts.feature_bytes +=
        static_cast<double>(outside_rows) * g.feature_dim() * 4.0;
    res.load_counts.weight_bytes +=
        static_cast<double>(weights.gnn_param_count() +
                            weights.rnn_param_count()) *
        4.0;
    t_load.stop();

    // ---- GNN phase over all K snapshots, layer by layer. ----
    obs::ScopedTimer t_gnn(&res.seconds.gnn, "concurrent.gnn", "engine",
                           "tagnn.engine.gnn_seconds");
    for (std::size_t l = 0; l < layers; ++l) {
      window_seen.assign(n, false);
      for (std::size_t tk = 0; tk < k; ++tk) {
        const SnapshotId t = w.start + static_cast<SnapshotId>(tk);
        const Snapshot& snap = g.snapshot(t);
        const Matrix& in = (l == 0) ? snap.features : cur[tk];
        GcnForwardOptions fwd;
        fwd.scratch = &scratch;
        fwd.relu_output = l + 1 < layers;
        // With reuse on, traffic is charged by the O-CSR streaming
        // model below instead of per-gather inside the layer.
        fwd.count_feature_traffic = !opts_.gnn_reuse;
        const std::vector<VertexId>* compute_rows = nullptr;
        if (opts_.gnn_reuse && tk > 0) {
          compute_rows = &ov.changed_rows[l];
          fwd.compute_rows = compute_rows;
        }
        gcn_layer_forward(snap, in, weights.gnn[l], fwd, nxt[tk],
                          res.gnn_counts);
        if (opts_.gnn_reuse && tk > 0) {
          // Copy window-unchanged rows from the first snapshot.
          const std::vector<VertexId>& keep = ov.unchanged_rows[l];
          parallel_for(0, keep.size(), [&](std::size_t r0, std::size_t r1) {
            for (std::size_t i = r0; i < r1; ++i) {
              copy(nxt[0].row(keep[i]), nxt[tk].row(keep[i]));
            }
          }, /*serial_threshold=*/512);
          res.gnn_counts.gnn_vertex_reused += keep.size();
        }
        if (opts_.gnn_reuse) {
          const std::vector<bool>& stable_row =
              (l == 0) ? cls.feature_stable : unchanged[l - 1];
          const Matrix* prev_in = nullptr;
          if (opts_.count_redundancy && tk > 0) {
            prev_in = (l == 0) ? &g.snapshot(t - 1).features : &cur[tk - 1];
          }
          charge_concurrent_traffic(snap, compute_rows, stable_row, in,
                                    prev_in, window_seen, snap_stamp,
                                    ++snap_epoch, res.gnn_counts);
        }
      }
      std::swap(cur, nxt);
    }
    t_gnn.stop();

    // ---- RNN phase with similarity-aware cell skipping. ----
    obs::ScopedTimer t_rnn(&res.seconds.rnn, "concurrent.rnn", "engine",
                           "tagnn.engine.rnn_seconds");
    for (std::size_t tk = 0; tk < k; ++tk) {
      const SnapshotId t = w.start + static_cast<SnapshotId>(tk);
      const Snapshot& snap = g.snapshot(t);
      const Matrix& z = cur[tk];
      const SnapshotId gt = global_offset + t;  // stream-global time
      const Snapshot* prev_snap = t > 0 ? &g.snapshot(t - 1) : nullptr;
      if (prev_snap == nullptr && carry != nullptr &&
          carry->prev_snapshot.has_value()) {
        prev_snap = &*carry->prev_snapshot;
      }
      TAGNN_CHECK_MSG(gt == 0 || prev_snap != nullptr,
                      "stream carry missing the previous snapshot");

      // Pass 1 — decide each vertex's mode in parallel. The decision
      // only reads the vertex's own rows (z_applied/h/z), none of which
      // are written until the update passes below, so it is safe to
      // separate from the updates.
      detail::parallel_vertices(
          n,
          [&](VertexId v, OpCounts& counts) {
            if (!snap.present[v]) {
              mode[v] = kAbsent;
              return;
            }
            CellMode m = CellMode::kFull;
            if (opts_.cell_skip && gt >= opts_.skip_warmup_snapshots &&
                gt > 0) {
              if (tk > 0 && cls.is_unaffected(v)) {
                // Identical inputs and stable neighbourhood: θ = 1.
                m = CellMode::kSkip;
              } else {
                // Feature similarity is measured against the last input
                // actually folded into the cell (z_applied), not merely
                // the previous snapshot: otherwise a slow sequence of
                // below-threshold changes could be skipped forever and
                // the drift would never be corrected. The topological
                // term still compares consecutive snapshots per the
                // paper's formula.
                const float theta = similarity_score(
                    z_applied.row(v), z.row(v),
                    prev_snap->graph.neighbors(v), snap.graph.neighbors(v),
                    cls.clazz, &counts);
                m = decide_cell_mode(theta, opts_.thresholds);
              }
            }
            mode[v] = static_cast<std::uint8_t>(m);
          },
          res.rnn_counts);

      // Pass 2 — partition into the delta and full row lists.
      full_rows.clear();
      delta_rows.clear();
      std::size_t skips = 0;
      for (VertexId v = 0; v < n; ++v) {
        if (mode[v] == kAbsent) continue;
        switch (static_cast<CellMode>(mode[v])) {
          case CellMode::kSkip:
            ++skips;
            break;
          case CellMode::kDelta:
            delta_rows.push_back(v);
            break;
          case CellMode::kFull:
            full_rows.push_back(v);
            break;
        }
      }
      res.rnn_counts.rnn_skip += skips;

      // Pass 3 — delta updates as one batch. Per block of rows the
      // Condense Unit thresholds the input + recurrent drift vs the last
      // applied values into small dense tiles (exact zeros mark
      // unchanged lanes), and both gate products run as GEMMs over the
      // tiles. How dense the deltas are depends on the workload
      // (ml-cdgcn keeps ~0.3% of its lanes, fk-tgcn ~86%), so each block
      // picks the zero-skipping or the register-tile kernels from its
      // own kept-lane count (RnnCell::kSparseBlockShare).
      cell.delta_update_rows(z, z_applied, h_applied, opts_.delta_eps,
                             delta_rows, st.h, st.c, st.cache,
                             res.rnn_counts);

      // Pass 4 — full updates as one batch: fold the pre-update h into
      // h_applied, run the full rows through the blocked update, then
      // mark the inputs applied.
      if (!full_rows.empty()) {
        parallel_for(0, full_rows.size(), [&](std::size_t i0,
                                              std::size_t i1) {
          for (std::size_t i = i0; i < i1; ++i) {
            const VertexId v = full_rows[i];
            copy(st.h.row(v), h_applied.row(v));  // h folded by update
          }
        }, /*serial_threshold=*/512);
        cell.full_update_rows(z, full_rows, st.h, st.c, st.cache,
                              res.rnn_counts);
        parallel_for(0, full_rows.size(), [&](std::size_t i0,
                                              std::size_t i1) {
          for (std::size_t i = i0; i < i1; ++i) {
            const VertexId v = full_rows[i];
            copy(z.row(v), z_applied.row(v));
          }
        }, /*serial_threshold=*/512);
      }

      if (opts_.store_outputs) res.outputs.push_back(st.h);
      ++res.snapshots_processed;
    }
    t_rnn.stop();
  }
  res.final_hidden = st.h;
  if (carry != nullptr) {
    carry->h = st.h;
    carry->c = st.c;
    carry->cache = st.cache;
    carry->z_applied = z_applied;
    carry->h_applied = h_applied;
    carry->global_offset =
        global_offset + static_cast<SnapshotId>(g.num_snapshots());
    carry->prev_snapshot =
        g.snapshot(static_cast<SnapshotId>(g.num_snapshots()) - 1);
  }
  // Roofline numerator/denominator for post-hoc placement of the
  // software engine (obs/analyze/roofline.hpp).
  const OpCounts totals = res.total_counts();
  obs::gauge_set("tagnn.engine.roofline.macs", totals.macs);
  obs::gauge_set("tagnn.engine.roofline.bytes", totals.total_bytes());
  return res;
}

}  // namespace tagnn
