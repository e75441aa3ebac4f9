// Traced replay of one ConcurrentEngine pass, made of the same public
// graph, nn and tensor calls the engine makes, each wrapped in a span.
// The GCN layer is replayed as the three kernels gcn_layer_forward is
// built from (spmm_mean_csr, ops::gemm, relu) so the tensor layer shows;
// the RNN is replayed through RnnCell, whose gate GEMMs and sigmoid/tanh
// stay inside the nn.rnn_* spans. The window overhead runs inline (the
// engine prefetches it on a helper thread). The replay's final features
// must equal the engine's bit for bit, which proves it does the same
// work.
#pragma once

#include "graph/dynamic_graph.hpp"
#include "nn/engine.hpp"
#include "nn/weights.hpp"
#include "tensor/matrix.hpp"
#include "trace.hpp"

namespace perfbench {

struct ReplayStats {
  tagnn::Matrix final_hidden;
  // Window overhead, summed over windows.
  double vertex_windows = 0;   // n per window
  double unaffected = 0;       // unaffected vertices
  double subgraph = 0;         // affected-subgraph vertices
  double ocsr_bytes = 0;       // O-CSR structure + stored features
  double snapshot_bytes = 0;   // K per-snapshot CSR + feature bytes
  // GNN rows.
  double gnn_computed = 0;
  double gnn_reused = 0;
  // RNN vertex-steps of present vertices, by mode.
  double rnn_full = 0;
  double rnn_delta = 0;
  double rnn_skip = 0;
  // Kernel work computed from shapes.
  double gemm_macs = 0;
  double spmm_bytes = 0;
};

ReplayStats replay_concurrent(const tagnn::DynamicGraph& g,
                              const tagnn::DgnnWeights& w,
                              const tagnn::EngineOptions& opts,
                              Tracer* tracer);

}  // namespace perfbench
