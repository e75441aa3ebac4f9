#include "engine_bench.hpp"

#include <cstdio>
#include <cstring>
#include <vector>

#include "calib.hpp"
#include "graph/datasets.hpp"
#include "graph/generator.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "tagnn/accelerator.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace tagnn;

namespace {

// Every engine workload runs eight snapshots (in the default windows of
// four).
constexpr std::size_t kSnapshots = 8;

}  // namespace

EngineInputs make_engine_inputs(const Workload& wl, std::uint64_t seed) {
  GeneratorConfig gc = datasets::config(wl.dataset, wl.scale, kSnapshots);
  gc.seed = seed;
  EngineInputs in;
  in.graph = generate_dynamic_graph(gc);
  in.weights = DgnnWeights::init(ModelConfig::preset(wl.model),
                                 in.graph.feature_dim(), seed ^ 0x5eedu);
  return in;
}

EngineOptions engine_options() {
  EngineOptions o;
  o.store_outputs = false;
  return o;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

namespace {

// The corruption self-test flips one element of an output before it is
// checked; every check downstream of it must then fail.
void maybe_corrupt(Matrix& m, bool on) {
  if (on && m.size() > 0) m.data()[m.size() / 2] += 1.0f;
}

struct Round {
  double ref = 0, conc = 0, accel = 0, calib = 0;
};

}  // namespace

void run_engines(const RunConfig& cfg, const EngineInputs& in,
                 double budget_s, Outcome& out) {
  const DynamicGraph& g = in.graph;
  const DgnnWeights& w = in.weights;
  const EngineOptions opts = engine_options();
  const ReferenceEngine ref(opts);
  const ConcurrentEngine conc(opts);
  TagnnConfig acfg;
  acfg.window = opts.window_size;
  const TagnnAccelerator accel(acfg);
  const bool bad_engine = cfg.corrupt == Corrupt::kEngine;
  const bool bad_accel = cfg.corrupt == Corrupt::kAccel;

  // Untimed first pass: warms caches and fixes the expected outputs.
  const EngineResult ref0 = ref.run(g, w);
  const EngineResult conc0 = conc.run(g, w);
  AccelResult acc0 = accel.run(g, w);
  {
    EngineOptions exact = opts;
    exact.cell_skip = false;
    EngineResult r = ConcurrentEngine(exact).run(g, w);
    maybe_corrupt(r.final_hidden, bad_engine);
    out.check(same_bits(r.final_hidden, ref0.final_hidden),
              "concurrent (skipping off) != reference");
  }
  maybe_corrupt(acc0.functional.final_hidden, bad_accel);
  out.check(same_bits(acc0.functional.final_hidden, conc0.final_hidden),
            "accelerator functional output != concurrent");

  // Interleaved rounds: calibration pass, then the three engines in an
  // order that alternates per round, so drift hits all of them alike and
  // reference/concurrent always run back to back.
  std::vector<Round> rounds;
  const double t_end = now_s() + budget_s;
  while (rounds.empty() || now_s() < t_end) {
    Round r;
    r.calib = calib_slot(g);
    const bool fwd = rounds.size() % 2 == 0;
    for (int step = 0; step < 3; ++step) {
      const int which = fwd ? step : 2 - step;
      const double t0 = now_s();
      if (which == 0) {
        const EngineResult res = ref.run(g, w);
        r.ref = now_s() - t0;
        out.check(same_bits(res.final_hidden, ref0.final_hidden),
                  "reference output changed between runs");
      } else if (which == 1) {
        EngineResult res = conc.run(g, w);
        r.conc = now_s() - t0;
        maybe_corrupt(res.final_hidden, bad_engine);
        out.check(same_bits(res.final_hidden, conc0.final_hidden),
                  "concurrent output changed between runs");
      } else {
        AccelResult res = accel.run(g, w);
        r.accel = now_s() - t0;
        maybe_corrupt(res.functional.final_hidden, bad_accel);
        out.check(same_bits(res.functional.final_hidden, conc0.final_hidden),
                  "accelerator functional output != concurrent");
        out.check(res.cycles.total == acc0.cycles.total,
                  "accelerator cycles changed between runs");
      }
    }
    rounds.push_back(r);
  }

  const auto snaps = static_cast<double>(g.num_snapshots());
  std::vector<double> t_ref, t_conc, t_acc, t_cal, speedup;
  std::vector<double> n_ref, n_conc, n_acc;
  for (const Round& r : rounds) {
    t_ref.push_back(r.ref);
    t_conc.push_back(r.conc);
    t_acc.push_back(r.accel);
    t_cal.push_back(r.calib);
    speedup.push_back(r.ref / r.conc);
    n_ref.push_back(r.ref / r.calib);
    n_conc.push_back(r.conc / r.calib);
    n_acc.push_back(r.accel / r.calib);
  }
  const double m_ref = median(t_ref), m_conc = median(t_conc),
               m_acc = median(t_acc), m_cal = median(t_cal);
  std::fprintf(stderr,
               "engines: %zu rounds; median s: reference %.5f concurrent "
               "%.5f accel %.5f calib %.5f; per calib: %.4f %.4f %.4f\n",
               rounds.size(), m_ref, m_conc, m_acc, m_cal, median(n_ref),
               median(n_conc), median(n_acc));
  // Host-normalised throughput: each engine run is timed against the
  // calibration pass of its own round, and the median ratio is turned
  // back into snapshots/s at the workload's reference calibration time.
  // Raw medians spread ~0.2 between processes on a shared 4-vCPU host;
  // the normalised form about halves that (perfbench/README.md).
  const double ref_cal = cfg.wl.calib_ref_s;
  out.e2e("reference_snap_per_s", snaps / (median(n_ref) * ref_cal), "1/s");
  out.e2e("concurrent_snap_per_s", snaps / (median(n_conc) * ref_cal),
          "1/s");
  out.e2e("concurrent_speedup", median(speedup), "ratio");
  out.e2e("accel_sim_snap_per_s", snaps / (median(n_acc) * ref_cal), "1/s");
  out.e2e("accel_sim_cycles", static_cast<double>(acc0.cycles.total),
          "cycles");

  if (!cfg.trace) return;

  // ---- Replays of the concurrent pass, traced and untraced in turn:
  // the traced ones give the per-layer numbers, the pair gives the
  // tracing overhead.
  const int passes = 5;
  std::vector<std::map<std::string, double>> selfs, totals;
  std::vector<double> walls, plain_walls, covered;
  ReplayStats st;
  Tracer all;
  for (int p = 0; p < passes; ++p) {
    const double t0 = now_s();
    ReplayStats plain = replay_concurrent(g, w, opts, nullptr);
    plain_walls.push_back(now_s() - t0);
    maybe_corrupt(plain.final_hidden, bad_engine);
    out.check(same_bits(plain.final_hidden, conc0.final_hidden),
              "replay output != concurrent");
    Tracer tr;
    st = replay_concurrent(g, w, opts, &tr);
    maybe_corrupt(st.final_hidden, bad_engine);
    out.check(same_bits(st.final_hidden, conc0.final_hidden),
              "traced replay output != concurrent");
    selfs.push_back(tr.self_seconds());
    totals.push_back(tr.total_seconds());
    const double wall = totals.back()["replay"];
    walls.push_back(wall);
    covered.push_back(wall - selfs.back()["replay"]);
    const int base = static_cast<int>(all.spans().size());
    for (Span s : tr.spans()) {
      if (s.parent >= 0) s.parent += base;
      all.add(std::move(s));
    }
  }
  if (!cfg.spans_path.empty() && !all.write_json(cfg.spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", cfg.spans_path.c_str());
  }
  auto self_med = [&](const char* name) {
    std::vector<double> v;
    for (auto& m : selfs) v.push_back(m[name]);
    return median(v);
  };
  auto total_med = [&](const char* name) {
    std::vector<double> v;
    for (auto& m : totals) v.push_back(m[name]);
    return median(v);
  };
  auto share = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };

  out.layer("graph.classify_s", self_med("graph.classify"), "s");
  out.layer("graph.unchanged_s", self_med("graph.unchanged"), "s");
  out.layer("graph.subgraph_s", self_med("graph.subgraph"), "s");
  out.layer("graph.ocsr_build_s", self_med("graph.ocsr_build"), "s");
  out.layer("graph.unaffected_share", share(st.unaffected, st.vertex_windows),
            "ratio");
  out.layer("graph.subgraph_share", share(st.subgraph, st.vertex_windows),
            "ratio");
  out.layer("graph.ocsr_bytes_share", share(st.ocsr_bytes, st.snapshot_bytes),
            "ratio");

  const double gemm_s = self_med("tensor.gemm");
  const double spmm_s = self_med("tensor.spmm");
  out.layer("tensor.gemm_s", gemm_s, "s");
  out.layer("tensor.gemm_gmacs", share(st.gemm_macs, gemm_s) / 1e9, "GMAC/s");
  out.layer("tensor.spmm_s", spmm_s, "s");
  out.layer("tensor.spmm_gbs", share(st.spmm_bytes, spmm_s) / 1e9, "GB/s");
  out.layer("tensor.act_s", self_med("tensor.act"), "s");

  out.layer("nn.gcn_layer_s", self_med("nn.gcn_layer"), "s");
  out.layer("nn.gnn_reused_share",
            share(st.gnn_reused, st.gnn_reused + st.gnn_computed), "ratio");
  out.layer("nn.rnn_full_us_per_row",
            share(total_med("nn.rnn_full"), st.rnn_full) * 1e6, "us");
  out.layer("nn.rnn_delta_us_per_row",
            share(total_med("nn.rnn_delta"), st.rnn_delta) * 1e6, "us");
  out.layer("nn.similarity_s", self_med("nn.similarity"), "s");
  out.layer("nn.condense_s", self_med("nn.condense"), "s");
  const double steps = st.rnn_full + st.rnn_delta + st.rnn_skip;
  out.layer("nn.rnn_skip_share", share(st.rnn_skip, steps), "ratio");
  out.layer("nn.rnn_delta_share", share(st.rnn_delta, steps), "ratio");
  out.layer("nn.macs_saved_share",
            1.0 - share(conc0.total_counts().macs, ref0.total_counts().macs),
            "ratio");

  out.layer("accel.model_overhead_share", (m_acc - m_conc) / m_acc, "ratio");
  out.layer("accel.msdl_cycles", static_cast<double>(acc0.cycles.msdl),
            "cycles");
  out.layer("accel.gnn_cycles", static_cast<double>(acc0.cycles.gnn),
            "cycles");
  out.layer("accel.rnn_cycles", static_cast<double>(acc0.cycles.rnn),
            "cycles");
  out.layer("accel.memory_cycles", static_cast<double>(acc0.cycles.memory),
            "cycles");
  out.layer("accel.mac_occupancy", acc0.telemetry.mac_occupancy, "ratio");
  out.layer("accel.hbm_bw_occupancy", acc0.telemetry.hbm_bw_occupancy,
            "ratio");

  out.layer("host.calib_s", m_cal, "s");
  out.layer("host.triad_gbs", triad_gbs(), "GB/s");
  out.layer("trace_overhead_share", median(walls) / median(plain_walls) - 1,
            "ratio");
  // Share of the untraced engine's wall time the replay's layer spans
  // account for; the rest is engine work the replay leaves out (traffic
  // and redundancy accounting, load-phase tallies, prefetch hand-off).
  out.layer("trace.coverage_share", median(covered) / m_conc, "ratio");
}

}  // namespace perfbench
