// tagnn_trace — generate, inspect, and convert TaGNN dynamic-graph
// traces (.tgt).
//
// Usage:
//   tagnn_trace gen     <out.tgt>  [--dataset GT] [--scale S] [--snapshots N]
//   tagnn_trace info    <in.tgt>
//   tagnn_trace to-text <in.tgt> <out.txt>   (binary -> editable text)
//   tagnn_trace from-text <in.txt> <out.tgt> (text -> binary)
//
// Every subcommand also accepts the shared telemetry flags that do not
// need a live plane (see obs::telemetry_usage()): --metrics-out /
// --trace-out capture the run's telemetry, --report-out writes a
// tagnn.trace_info.v1 JSON summary of the processed trace, and --ledger
// appends a tagnn.run.v1 record so trace growth shows up in the
// cross-run ledger. The live-plane flags are refused.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "graph/classify.hpp"
#include "graph/datasets.hpp"
#include "graph/trace_io.hpp"
#include "obs/analyze/ledger.hpp"
#include "obs/cli.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace tagnn;

constexpr unsigned kTraceTelemetryFlags = obs::kMetricsOut | obs::kTraceOut |
                                          obs::kNoTelemetry |
                                          obs::kReportOut | obs::kLedger;

// Summary of the graph a subcommand touched, for --report-out/--ledger.
struct TraceStats {
  std::string name;
  std::size_t vertices = 0;
  std::size_t dim = 0;
  std::size_t snapshots = 0;
  double avg_edges = 0;
  bool valid = false;

  void fill(const DynamicGraph& g) {
    name = g.name();
    vertices = g.num_vertices();
    dim = g.feature_dim();
    snapshots = g.num_snapshots();
    avg_edges = g.avg_edges();
    valid = true;
  }
};

[[noreturn]] void usage() {
  std::cerr
      << "usage: tagnn_trace gen <out.tgt> [--dataset D] [--scale S] "
         "[--snapshots N]\n"
         "       tagnn_trace info <in.tgt>\n"
         "       tagnn_trace to-text <in.tgt> <out.txt>\n"
         "       tagnn_trace from-text <in.txt> <out.tgt>\n"
      << obs::telemetry_usage(kTraceTelemetryFlags);
  std::exit(2);
}

int cmd_gen(const std::vector<std::string>& args, TraceStats& stats) {
  if (args.empty()) usage();
  const std::string out = args[0];
  std::string dataset = "GT";
  double scale = 0.3;
  std::size_t snapshots = 8;
  // Every option takes a value; an unknown option or a missing value is
  // a usage error, not a silently ignored one.
  for (std::size_t i = 1; i < args.size(); i += 2) {
    const std::string& a = args[i];
    if (i + 1 == args.size()) usage();
    const std::string& val = args[i + 1];
    if (a == "--dataset") {
      dataset = val;
    } else if (a == "--scale") {
      scale = std::atof(val.c_str());
    } else if (a == "--snapshots") {
      snapshots = static_cast<std::size_t>(std::atoi(val.c_str()));
    } else {
      usage();
    }
  }
  const DynamicGraph g = datasets::load(dataset, scale, snapshots);
  write_trace_file(g, out);
  stats.fill(g);
  std::cout << "wrote " << out << ": " << g.num_vertices() << " vertices, "
            << g.num_snapshots() << " snapshots, dim " << g.feature_dim()
            << "\n";
  return 0;
}

int cmd_info(const std::vector<std::string>& args, TraceStats& stats) {
  if (args.empty()) usage();
  const DynamicGraph g = read_trace_file(args[0]);
  stats.fill(g);
  std::cout << "trace:      " << g.name() << "\n"
            << "vertices:   " << g.num_vertices() << "\n"
            << "dim:        " << g.feature_dim() << "\n"
            << "snapshots:  " << g.num_snapshots() << "\n"
            << "avg edges:  " << g.avg_edges() << "\n";
  if (g.num_snapshots() >= 2) {
    const SnapshotId k =
        std::min<SnapshotId>(4, static_cast<SnapshotId>(g.num_snapshots()));
    const auto cls = classify_window(g, {0, k});
    std::cout << "window-" << k << " classification: "
              << 100 * cls.ratio(VertexClass::kUnaffected) << "% unaffected, "
              << 100 * cls.ratio(VertexClass::kStable) << "% stable, "
              << 100 * cls.ratio(VertexClass::kAffected) << "% affected\n";
  }
  return 0;
}

int cmd_to_text(const std::vector<std::string>& args, TraceStats& stats) {
  if (args.size() < 2) usage();
  const DynamicGraph g = read_trace_file(args[0]);
  stats.fill(g);
  std::ofstream os(args[1]);
  if (!os) {
    std::cerr << "cannot open " << args[1] << "\n";
    return 1;
  }
  write_text_trace(g, os);
  std::cout << "wrote text trace " << args[1] << "\n";
  return 0;
}

int cmd_from_text(const std::vector<std::string>& args, TraceStats& stats) {
  if (args.size() < 2) usage();
  const DynamicGraph g = read_text_trace_file(args[0]);
  stats.fill(g);
  write_trace_file(g, args[1]);
  std::cout << "wrote binary trace " << args[1] << " (" << g.num_vertices()
            << " vertices, " << g.num_snapshots() << " snapshots)\n";
  return 0;
}

void write_report(const std::string& path, const std::string& cmd,
                  const TraceStats& s) {
  std::ofstream f(path);
  if (!f) {
    throw std::runtime_error("cannot open report output file: " + path);
  }
  f << "{\n  \"schema\": \"tagnn.trace_info.v1\",\n"
    << "  \"command\": \"" << cmd << "\",\n"
    << "  \"trace\": \"" << obs::json_escape(s.name) << "\",\n"
    << "  \"vertices\": " << s.vertices << ",\n"
    << "  \"dim\": " << s.dim << ",\n"
    << "  \"snapshots\": " << s.snapshots << ",\n"
    << "  \"avg_edges\": ";
  obs::write_json_number(f, s.avg_edges);
  f << "\n}\n";
}

void append_ledger(const std::string& path, const std::string& cmd,
                   const TraceStats& s) {
  obs::analyze::RunRecord rec;
  rec.workload = "tagnn_trace." + cmd + "." + s.name;
  const char* sha = std::getenv("TAGNN_GIT_SHA");
  rec.git_sha = sha != nullptr ? sha : "";
  std::ostringstream canonical;
  canonical << "cmd=" << cmd << ";trace=" << s.name << ";dim=" << s.dim;
  rec.config_fingerprint = obs::analyze::fingerprint(canonical.str());
  rec.env = "tagnn_trace";
  rec.set("vertices", static_cast<double>(s.vertices));
  rec.set("snapshots", static_cast<double>(s.snapshots));
  rec.set("avg_edges", s.avg_edges);
  obs::analyze::append_run_record(path, rec);
}

}  // namespace

int main(int argc, char** argv) {
  obs::TelemetryCliOptions tel;
  std::vector<std::string> rest;
  try {
    const std::vector<std::string> all = obs::split_eq_flags(argc, argv);
    for (std::size_t i = 1; i < all.size(); ++i) {
      if (all[i] == "--help" || all[i] == "-h") usage();
      if (!obs::consume_telemetry_flag(all, i, tel, kTraceTelemetryFlags)) {
        rest.push_back(all[i]);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (rest.empty()) usage();
  const std::string cmd = rest[0];
  const std::vector<std::string> args(rest.begin() + 1, rest.end());

  if (tel.disable_telemetry) obs::set_telemetry_enabled(false);
  obs::MetricsRegistry::global().reset();
  std::unique_ptr<obs::TraceCollector> tc;
  if (tel.wants_trace()) {
    tc = std::make_unique<obs::TraceCollector>();
    obs::TraceCollector::set_active(tc.get());
  }

  int rc = 2;
  TraceStats stats;
  try {
    if (cmd == "gen") {
      rc = cmd_gen(args, stats);
    } else if (cmd == "info") {
      rc = cmd_info(args, stats);
    } else if (cmd == "to-text") {
      rc = cmd_to_text(args, stats);
    } else if (cmd == "from-text") {
      rc = cmd_from_text(args, stats);
    } else {
      obs::TraceCollector::set_active(nullptr);
      usage();
    }
    if (stats.valid) {
      obs::gauge_set("tagnn.trace.vertices",
                     static_cast<double>(stats.vertices));
      obs::gauge_set("tagnn.trace.snapshots",
                     static_cast<double>(stats.snapshots));
      obs::gauge_set("tagnn.trace.avg_edges", stats.avg_edges);
      if (tel.wants_report()) write_report(tel.report_out, cmd, stats);
      if (tel.wants_ledger()) append_ledger(tel.ledger, cmd, stats);
    }
    obs::TraceCollector::set_active(nullptr);
    if (tel.wants_metrics()) {
      obs::write_metrics_file(tel, obs::MetricsRegistry::global().snapshot());
    }
    if (tc != nullptr) obs::write_trace_file(tel, *tc);
  } catch (const std::exception& e) {
    obs::TraceCollector::set_active(nullptr);
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return rc;
}
