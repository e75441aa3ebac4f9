// Telemetry CLI plumbing shared by tools and tested in test_obs.
//
// Recognised flags (value either space- or '='-separated):
//   --metrics-out FILE        write a metrics snapshot on exit
//   --trace-out FILE          write a Chrome trace_event JSON on exit
//   --metrics-format json|csv snapshot encoding (default json)
//   --no-telemetry            runtime telemetry off-switch
//   --report-out FILE         write a tool-specific JSON report on exit
//   --ledger FILE             append a tagnn.run.v1 record (JSONL)
//   --live-port PORT          serve /metrics /snapshot.json /healthz
//                             /quit on 127.0.0.1:PORT (0 = ephemeral,
//                             announced on stderr)
//   --live-interval-ms MS     sampler tick interval (default 500)
//   --live-linger-ms MS       keep serving MS after the workload ends
//                             (released early by GET /quit)
//   --flight-recorder FILE    crash-time JSONL dump of the last
//                             sampler ticks (tagnn.flight.v1)
#pragma once

#include <string>
#include <vector>

namespace tagnn::obs {

struct MetricsSnapshot;
class TraceCollector;

struct TelemetryCliOptions {
  std::string metrics_out;
  std::string trace_out;
  std::string metrics_format = "json";
  std::string report_out;
  std::string ledger;
  bool disable_telemetry = false;
  int live_port = -1;  // >= 0: serve the live plane (0 = ephemeral)
  int live_interval_ms = 500;
  int live_linger_ms = 0;
  std::string flight_recorder;

  bool wants_metrics() const { return !metrics_out.empty(); }
  bool wants_trace() const { return !trace_out.empty(); }
  bool wants_report() const { return !report_out.empty(); }
  bool wants_ledger() const { return !ledger.empty(); }
  /// The live plane starts when either the HTTP server or the flight
  /// recorder is requested (the sampler feeds both).
  bool wants_live() const {
    return live_port >= 0 || !flight_recorder.empty();
  }
};

/// One bit per shared flag, so each tool can name the flags it honours.
/// `kMetricsOut` covers --metrics-out and --metrics-format.
enum TelemetryFlag : unsigned {
  kMetricsOut = 1u << 0,
  kTraceOut = 1u << 1,
  kNoTelemetry = 1u << 2,
  kReportOut = 1u << 3,
  kLedger = 1u << 4,
  kLivePort = 1u << 5,
  kLiveIntervalMs = 1u << 6,
  kLiveLingerMs = 1u << 7,
  kFlightRecorder = 1u << 8,
  kAllTelemetryFlags = (1u << 9) - 1,
};

/// Splits each "--flag=value" token into "--flag", "value" so parsers
/// can treat both spellings alike. Non-flag tokens pass through.
std::vector<std::string> split_eq_flags(int argc, char** argv);

/// If args[i] is a telemetry flag, consumes it (and its value,
/// advancing i past everything consumed) into `o` and returns true.
/// Throws std::invalid_argument on a missing value, an unknown
/// --metrics-format, or a flag outside `honoured` (a flag the tool
/// would otherwise accept and silently ignore).
bool consume_telemetry_flag(const std::vector<std::string>& args,
                            std::size_t& i, TelemetryCliOptions& o,
                            unsigned honoured = kAllTelemetryFlags);

/// Usage lines for the `honoured` flags, for tools' --help output.
std::string telemetry_usage(unsigned honoured = kAllTelemetryFlags);

/// Writes the snapshot to o.metrics_out in o.metrics_format. Throws
/// std::runtime_error when the file cannot be opened.
void write_metrics_file(const TelemetryCliOptions& o,
                        const MetricsSnapshot& snapshot);

/// Writes the collector's trace JSON to o.trace_out.
void write_trace_file(const TelemetryCliOptions& o,
                      const TraceCollector& collector);

}  // namespace tagnn::obs
