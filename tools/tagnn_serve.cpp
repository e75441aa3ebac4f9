// tagnn_serve: persistent multi-tenant streaming-inference server.
//
// Hosts N tenant graphs (serve::ServePlane) behind a loopback HTTP
// request plane, next to the live telemetry endpoints:
//   POST /v1/ingest?tenant=NAME   {"advance": k, "add_edges": [[u,v],...]}
//   POST /v1/infer?tenant=NAME    {"vertices": [v, ...]}
//   GET  /v1/tenants  /slo.json  /metrics  /snapshot.json  /healthz  /quit
//
// Runs until GET /quit or --max-runtime-s elapses. Drive it with
// tagnn_loadgen; see docs/SERVING.md.
#include <cstdint>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/cli.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "serve/server.hpp"

namespace {

// The live plane listens on --port, and the server writes no trace,
// report or ledger, so those shared flags are refused.
constexpr unsigned kServeTelemetryFlags =
    tagnn::obs::kMetricsOut | tagnn::obs::kNoTelemetry |
    tagnn::obs::kLiveIntervalMs | tagnn::obs::kFlightRecorder;

struct Options {
  int port = 0;  // 0 = kernel-assigned, announced on stderr
  int tenants = 2;
  std::string dataset = "GT";
  double scale = 0.05;
  std::size_t stream_snapshots = 12;
  std::string model = "T-GCN";
  unsigned window = 4;
  std::size_t max_batch = 8;
  std::size_t max_queue = 64;
  tagnn::serve::SloTargets slo;
  int max_runtime_s = 3600;
  tagnn::obs::TelemetryCliOptions tel;
};

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --port N             listen port (default 0 = ephemeral)\n"
      << "  --tenants N          tenant count (default 2, named t0..)\n"
      << "  --dataset NAME       HP|GT|ML|EP|FK (default GT)\n"
      << "  --scale X            generator scale (default 0.05)\n"
      << "  --stream-snapshots N generated stream length (default 12)\n"
      << "  --model NAME         CD-GCN|GC-LSTM|T-GCN (default T-GCN)\n"
      << "  --window N           engine window size (default 4)\n"
      << "  --max-batch N        max queued requests per dispatch (default 8)\n"
      << "  --max-queue N        per-tenant admission bound (default 64)\n"
      << "  --slo-p50-ms X --slo-p90-ms X --slo-p99-ms X\n"
      << "                       latency targets for /slo.json\n"
      << "  --max-runtime-s N    exit after N seconds without /quit\n"
      << tagnn::obs::telemetry_usage(kServeTelemetryFlags);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tagnn;
  Options o;
  try {
    const std::vector<std::string> args = obs::split_eq_flags(argc, argv);
    const auto value = [&args](std::size_t& i, const std::string& flag) {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument(flag + " needs a value");
      }
      return args[++i];
    };
    for (std::size_t i = 1; i < args.size(); ++i) {
      const std::string& a = args[i];
      if (a == "--port") {
        o.port = std::stoi(value(i, a));
      } else if (a == "--tenants") {
        o.tenants = std::stoi(value(i, a));
      } else if (a == "--dataset") {
        o.dataset = value(i, a);
      } else if (a == "--scale") {
        o.scale = std::stod(value(i, a));
      } else if (a == "--stream-snapshots") {
        o.stream_snapshots = std::stoul(value(i, a));
      } else if (a == "--model") {
        o.model = value(i, a);
      } else if (a == "--window") {
        o.window = static_cast<unsigned>(std::stoul(value(i, a)));
      } else if (a == "--max-batch") {
        o.max_batch = std::stoul(value(i, a));
      } else if (a == "--max-queue") {
        o.max_queue = std::stoul(value(i, a));
      } else if (a == "--slo-p50-ms") {
        o.slo.p50_ms = std::stod(value(i, a));
      } else if (a == "--slo-p90-ms") {
        o.slo.p90_ms = std::stod(value(i, a));
      } else if (a == "--slo-p99-ms") {
        o.slo.p99_ms = std::stod(value(i, a));
      } else if (a == "--max-runtime-s") {
        o.max_runtime_s = std::stoi(value(i, a));
      } else if (!obs::consume_telemetry_flag(args, i, o.tel,
                                               kServeTelemetryFlags)) {
        return usage(argv[0]);
      }
    }
    if (o.tenants < 1 || o.max_runtime_s < 1) return usage(argv[0]);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (o.tel.disable_telemetry) obs::set_telemetry_enabled(false);

  serve::ServePlaneOptions po;
  for (int i = 0; i < o.tenants; ++i) {
    serve::TenantConfig cfg;
    cfg.name = "t" + std::to_string(i);
    cfg.dataset = o.dataset;
    cfg.scale = o.scale;
    cfg.stream_snapshots = o.stream_snapshots;
    cfg.model = o.model;
    cfg.weight_seed = 3 + static_cast<std::uint64_t>(i);
    cfg.engine.window_size = o.window;
    cfg.max_queue = o.max_queue;
    po.serve.tenants.push_back(std::move(cfg));
  }
  po.serve.max_batch = o.max_batch;
  po.serve.slo = o.slo;
  po.live.port = o.port;
  po.live.interval_ms = o.tel.live_interval_ms;
  po.live.flight_recorder_path = o.tel.flight_recorder;

  std::cerr << "serve: loading " << o.tenants << " tenant(s) of "
            << o.dataset << " @ scale " << o.scale << "...\n";
  serve::ServePlane plane(std::move(po));
  std::string error;
  if (!plane.start(&error)) {
    std::cerr << "serve: " << error << "\n";
    return 1;
  }
  // (The live plane already announced "live: listening on 127.0.0.1:P".)
  std::cerr << "serve: ready; POST /v1/ingest and /v1/infer, GET /quit to"
            << " stop\n";
  plane.live().wait_linger(o.max_runtime_s * 1000);

  const std::string slo = plane.core().slo_json();
  plane.stop();
  std::cout << slo;
  if (o.tel.wants_metrics()) {
    obs::write_metrics_file(o.tel, obs::MetricsRegistry::global().snapshot());
  }
  return 0;
}
