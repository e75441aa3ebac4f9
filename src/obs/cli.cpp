#include "obs/cli.hpp"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tagnn::obs {
namespace {

std::string need_value(const std::vector<std::string>& args, std::size_t& i,
                       const std::string& flag) {
  if (i + 1 >= args.size()) {
    throw std::invalid_argument("missing value for " + flag);
  }
  return args[++i];
}

int need_int(const std::vector<std::string>& args, std::size_t& i,
             const std::string& flag, int min_value, int max_value) {
  const std::string v = need_value(args, i, flag);
  int out = 0;
  try {
    std::size_t used = 0;
    out = std::stoi(v, &used);
    if (used != v.size()) throw std::invalid_argument(v);
  } catch (const std::exception&) {
    throw std::invalid_argument("bad integer for " + flag + ": '" + v + "'");
  }
  if (out < min_value || out > max_value) {
    throw std::invalid_argument(flag + " out of range: " + v);
  }
  return out;
}

}  // namespace

std::vector<std::string> split_eq_flags(int argc, char** argv) {
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    const std::size_t eq = a.find('=');
    if (a.size() > 2 && a[0] == '-' && a[1] == '-' &&
        eq != std::string::npos) {
      out.push_back(a.substr(0, eq));
      out.push_back(a.substr(eq + 1));
    } else {
      out.push_back(a);
    }
  }
  return out;
}

bool consume_telemetry_flag(const std::vector<std::string>& args,
                            std::size_t& i, TelemetryCliOptions& o,
                            unsigned honoured) {
  const std::string& a = args[i];
  const auto is = [&](const char* name, TelemetryFlag bit) {
    if (a != name) return false;
    if ((honoured & bit) == 0) {
      throw std::invalid_argument(a + " is not supported by this tool");
    }
    return true;
  };
  if (is("--metrics-out", kMetricsOut)) {
    o.metrics_out = need_value(args, i, a);
    return true;
  }
  if (is("--trace-out", kTraceOut)) {
    o.trace_out = need_value(args, i, a);
    return true;
  }
  if (is("--metrics-format", kMetricsOut)) {
    const std::string f = need_value(args, i, a);
    if (f != "json" && f != "csv") {
      throw std::invalid_argument("--metrics-format must be json or csv, got '" +
                                  f + "'");
    }
    o.metrics_format = f;
    return true;
  }
  if (is("--report-out", kReportOut)) {
    o.report_out = need_value(args, i, a);
    return true;
  }
  if (is("--ledger", kLedger)) {
    o.ledger = need_value(args, i, a);
    return true;
  }
  if (is("--no-telemetry", kNoTelemetry)) {
    o.disable_telemetry = true;
    return true;
  }
  if (is("--live-port", kLivePort)) {
    o.live_port = need_int(args, i, a, 0, 65535);
    return true;
  }
  if (is("--live-interval-ms", kLiveIntervalMs)) {
    o.live_interval_ms = need_int(args, i, a, 1, 3600000);
    return true;
  }
  if (is("--live-linger-ms", kLiveLingerMs)) {
    o.live_linger_ms = need_int(args, i, a, 0, 86400000);
    return true;
  }
  if (is("--flight-recorder", kFlightRecorder)) {
    o.flight_recorder = need_value(args, i, a);
    return true;
  }
  return false;
}

std::string telemetry_usage(unsigned honoured) {
  static constexpr std::pair<TelemetryFlag, const char*> kUsage[] = {
      {kMetricsOut, "[--metrics-out FILE]"},
      {kMetricsOut, "[--metrics-format json|csv]"},
      {kTraceOut, "[--trace-out FILE]"},
      {kNoTelemetry, "[--no-telemetry]"},
      {kReportOut, "[--report-out FILE]"},
      {kLedger, "[--ledger FILE]"},
      {kLivePort, "[--live-port PORT]"},
      {kLiveIntervalMs, "[--live-interval-ms MS]"},
      {kLiveLingerMs, "[--live-linger-ms MS]"},
      {kFlightRecorder, "[--flight-recorder FILE]"},
  };
  // Two flags per line, as tools print their own options.
  std::string out;
  int on_line = 0;
  for (const auto& [bit, text] : kUsage) {
    if ((honoured & bit) == 0) continue;
    out += on_line == 0 ? "       " : " ";
    out += text;
    if (++on_line == 2) {
      out += "\n";
      on_line = 0;
    }
  }
  if (on_line != 0) out += "\n";
  return out;
}

void write_metrics_file(const TelemetryCliOptions& o,
                        const MetricsSnapshot& snapshot) {
  std::ofstream f(o.metrics_out);
  if (!f) {
    throw std::runtime_error("cannot open metrics output file: " +
                             o.metrics_out);
  }
  if (o.metrics_format == "csv") {
    snapshot.write_csv(f);
  } else {
    snapshot.write_json(f);
  }
}

void write_trace_file(const TelemetryCliOptions& o,
                      const TraceCollector& collector) {
  std::ofstream f(o.trace_out);
  if (!f) {
    throw std::runtime_error("cannot open trace output file: " +
                             o.trace_out);
  }
  collector.write_json(f);
}

}  // namespace tagnn::obs
