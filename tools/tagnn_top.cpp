// tagnn_top — live terminal dashboard for a process serving the live
// telemetry plane (tagnn_sim --live-port, streaming_inference, ...).
//
// Polls /snapshot.json (schema tagnn.live.v1) and redraws a compact
// view each interval: window/task throughput, per-unit busy/stall bars
// from the tagnn.accel.unit.* gauges, latency quantiles for every
// histogram, and ledger-style drift flags — each frame's rates are
// judged against the preceding frames with the same robust
// median/MAD rule the run ledger uses (obs/analyze/ledger.hpp).
//
// Usage:
//   tagnn_top --port P [--host 127.0.0.1] [--interval-ms 1000]
//             [--frames N] [--once] [--no-color] [--fetch PATH]
//
//   --once      render a single frame without clearing the screen
//               (scripting / tests)
//   --frames N  exit after N frames (0 = until the host goes away)
//   --fetch P   print the raw body of endpoint P (e.g. /metrics) and
//               exit; turns the tool into a tiny dependency-free curl
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/analyze/ledger.hpp"
#include "obs/json.hpp"
#include "obs/live/http.hpp"

namespace {

using tagnn::obs::JsonValue;
using tagnn::obs::live::http_get;
using tagnn::obs::live::HttpGetResult;

struct Options {
  std::string host = "127.0.0.1";
  int port = -1;
  int interval_ms = 1000;
  int frames = 0;  // 0 = run until the host stops answering
  bool once = false;
  bool color = true;
  std::string fetch;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --port P [--host H] [--interval-ms MS] [--frames N]\n"
               "       [--once] [--no-color] [--fetch PATH]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  auto need = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--port") {
      o.port = std::atoi(need(i).c_str());
    } else if (a == "--host") {
      o.host = need(i);
    } else if (a == "--interval-ms") {
      o.interval_ms = std::atoi(need(i).c_str());
    } else if (a == "--frames") {
      o.frames = std::atoi(need(i).c_str());
    } else if (a == "--once") {
      o.once = true;
    } else if (a == "--no-color") {
      o.color = false;
    } else if (a == "--fetch") {
      o.fetch = need(i);
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
    } else {
      std::cerr << "unknown flag: " << a << "\n";
      usage(argv[0]);
    }
  }
  if (o.port < 0 || o.port > 65535) usage(argv[0]);
  return o;
}

std::string bar(double fraction, int width) {
  if (!(fraction >= 0)) fraction = 0;
  if (fraction > 1) fraction = 1;
  const int filled = static_cast<int>(std::lround(fraction * width));
  std::string out;
  out.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) out += i < filled ? '#' : '.';
  return out;
}

std::string human_rate(double v) {
  char buf[32];
  if (v >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fG/s", v / 1e9);
  } else if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM/s", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2fk/s", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f/s", v);
  }
  return buf;
}

std::string human_bytes(double v) {
  char buf[32];
  if (v >= 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2fGiB", v / (1024.0 * 1024.0 * 1024.0));
  } else if (v >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2fMiB", v / (1024.0 * 1024.0));
  } else if (v >= 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2fKiB", v / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fB", v);
  }
  return buf;
}

struct Frame {
  std::uint64_t seq = 0;
  double uptime_s = 0;
  std::vector<std::pair<std::string, double>> rates;
  JsonValue metrics;  // the "metrics" object
};

bool parse_frame(const std::string& body, Frame* out, std::string* error) {
  JsonValue doc;
  if (!tagnn::obs::json_parse(body, &doc, error)) return false;
  if (doc.string_at("schema") != "tagnn.live.v1") {
    if (error != nullptr) *error = "not a tagnn.live.v1 document";
    return false;
  }
  out->seq = static_cast<std::uint64_t>(doc.number_at("seq"));
  out->uptime_s = doc.number_at("uptime_s");
  if (const JsonValue* r = doc.find("rates"); r != nullptr && r->is_object()) {
    for (const auto& [name, v] : r->as_object()) {
      if (v.is_number()) out->rates.emplace_back(name, v.as_number());
    }
  }
  if (const JsonValue* m = doc.find("metrics");
      m != nullptr && m->is_object()) {
    out->metrics = *m;
  }
  return true;
}

void render(std::ostream& os, const Options& o, const Frame& f,
            const std::vector<tagnn::obs::analyze::DriftFinding>& drift) {
  const char* dim = o.color ? "\x1b[2m" : "";
  const char* bold = o.color ? "\x1b[1m" : "";
  const char* red = o.color ? "\x1b[31m" : "";
  const char* reset = o.color ? "\x1b[0m" : "";

  os << bold << "tagnn_top" << reset << "  " << o.host << ":" << o.port
     << "  frame " << f.seq << "  uptime " << std::fixed;
  os.precision(1);
  os << f.uptime_s << "s\n\n";

  // Throughput: the counter rates the sampler computed server-side.
  os << bold << "throughput" << reset << "\n";
  bool any_rate = false;
  for (const auto& [name, v] : f.rates) {
    if (v <= 0) continue;
    any_rate = true;
    os << "  " << name << "  " << human_rate(v) << "\n";
  }
  if (!any_rate) os << dim << "  (no counters moving)" << reset << "\n";

  // Per-unit busy/stall bars from the tagnn.accel.unit.* gauges.
  os << "\n" << bold << "accelerator units" << reset << "\n";
  bool any_unit = false;
  for (const auto& [name, v] : f.metrics.as_object()) {
    constexpr const char* kPrefix = "tagnn.accel.unit.";
    constexpr const char* kBusy = ".busy_cycles";
    if (name.rfind(kPrefix, 0) != 0) continue;
    const std::size_t tail = name.rfind(kBusy);
    if (tail == std::string::npos ||
        tail + std::string(kBusy).size() != name.size()) {
      continue;
    }
    const std::string unit = name.substr(std::string(kPrefix).size(),
                                         tail - std::string(kPrefix).size());
    const double busy = v.number_at("value");
    const JsonValue* sv =
        f.metrics.find(std::string(kPrefix) + unit + ".stall_cycles");
    const double stall_v = sv != nullptr ? sv->number_at("value") : 0;
    const double denom = busy + stall_v;
    const double frac = denom > 0 ? busy / denom : 0;
    any_unit = true;
    char line[160];
    std::snprintf(line, sizeof(line), "  %-10s [%s] %5.1f%% busy",
                  unit.c_str(), bar(frac, 30).c_str(), 100 * frac);
    os << line << dim << "  (" << busy << " busy / " << stall_v
       << " stall cycles)" << reset << "\n";
  }
  if (!any_unit) {
    os << dim << "  (no tagnn.accel.unit.* gauges yet)" << reset << "\n";
  }

  // Per-subsystem byte accounting from the tagnn.mem.* gauges, each bar
  // showing live bytes against the subsystem's own high-water mark.
  os << "\n" << bold << "memory" << reset << "\n";
  {
    const JsonValue* rss = f.metrics.find("tagnn.mem.process.rss_bytes");
    const JsonValue* maxrss = f.metrics.find("tagnn.mem.process.maxrss_bytes");
    const JsonValue* tracked = f.metrics.find("tagnn.mem.tracked.live_bytes");
    if (rss != nullptr || tracked != nullptr) {
      os << "  process rss "
         << human_bytes(rss != nullptr ? rss->number_at("value") : 0)
         << "  maxrss "
         << human_bytes(maxrss != nullptr ? maxrss->number_at("value") : 0)
         << "  tracked "
         << human_bytes(tracked != nullptr ? tracked->number_at("value") : 0)
         << "\n";
    }
    bool any_mem = false;
    for (const auto& [name, v] : f.metrics.as_object()) {
      constexpr const char* kPrefix = "tagnn.mem.";
      constexpr const char* kLive = ".live_bytes";
      if (name.rfind(kPrefix, 0) != 0) continue;
      const std::size_t tail = name.rfind(kLive);
      if (tail == std::string::npos ||
          tail + std::string(kLive).size() != name.size()) {
        continue;
      }
      const std::string sub = name.substr(std::string(kPrefix).size(),
                                          tail - std::string(kPrefix).size());
      if (sub == "process" || sub == "tracked" || sub.empty()) continue;
      const double live = v.number_at("value");
      const JsonValue* hwv =
          f.metrics.find(std::string(kPrefix) + sub + ".high_water_bytes");
      const double hw = hwv != nullptr ? hwv->number_at("value") : 0;
      const double frac = hw > 0 ? live / hw : 0;
      any_mem = true;
      char line[200];
      std::snprintf(line, sizeof(line), "  %-10s [%s] %-10s", sub.c_str(),
                    bar(frac, 30).c_str(), human_bytes(live).c_str());
      os << line << dim << " (hw " << human_bytes(hw) << ")" << reset << "\n";
    }
    if (!any_mem) {
      os << dim << "  (no tagnn.mem.* gauges yet)" << reset << "\n";
    }
  }

  // Latency quantiles for every histogram in the snapshot.
  os << "\n" << bold << "latency quantiles" << reset << "\n";
  bool any_hist = false;
  for (const auto& [name, v] : f.metrics.as_object()) {
    if (v.string_at("kind") != "histogram") continue;
    if (v.number_at("count") <= 0) continue;
    any_hist = true;
    char line[200];
    std::snprintf(line, sizeof(line),
                  "  %-42s n=%-8.0f p50=%-10.4g p90=%-10.4g p99=%-10.4g",
                  name.c_str(), v.number_at("count"), v.number_at("p50"),
                  v.number_at("p90"), v.number_at("p99"));
    os << line << "\n";
  }
  if (!any_hist) os << dim << "  (no histograms yet)" << reset << "\n";

  // Drift flags: this frame's rates vs the recent frame history.
  os << "\n" << bold << "drift" << reset << "\n";
  if (drift.empty()) {
    os << dim << "  steady (no rate drifting from the frame history)"
       << reset << "\n";
  } else {
    for (const auto& d : drift) {
      char line[200];
      std::snprintf(line, sizeof(line),
                    "  %s%-42s %.4g vs median %.4g (severity %.1fx)%s",
                    red, d.metric.c_str(), d.value, d.median, d.severity,
                    o.color ? "\x1b[0m" : "");
      os << line << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const std::uint16_t port = static_cast<std::uint16_t>(o.port);

  if (!o.fetch.empty()) {
    const HttpGetResult r = http_get(o.host, port, o.fetch);
    if (!r.ok) {
      std::cerr << "error: " << r.error << "\n";
      return 1;
    }
    std::cout << r.body;
    return r.status == 200 ? 0 : 1;
  }

  // Frame history for the drift judge: each frame becomes a pseudo
  // ledger record of its rates, compared against the trailing window.
  std::vector<tagnn::obs::analyze::RunRecord> history;
  constexpr std::size_t kHistory = 30;

  int rendered = 0;
  int failures = 0;
  for (;;) {
    const HttpGetResult r = http_get(o.host, port, "/snapshot.json");
    if (!r.ok || r.status != 200) {
      if (++failures >= 3 || o.once) {
        std::cerr << "error: host stopped answering ("
                  << (r.ok ? "HTTP " + std::to_string(r.status) : r.error)
                  << ")\n";
        return rendered > 0 ? 0 : 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(o.interval_ms));
      continue;
    }
    failures = 0;
    Frame f;
    std::string error;
    if (!parse_frame(r.body, &f, &error)) {
      std::cerr << "error: bad snapshot: " << error << "\n";
      return 1;
    }

    tagnn::obs::analyze::RunRecord rec;
    rec.workload = "tagnn_top.frames";
    for (const auto& [name, v] : f.rates) rec.set(name, v);
    const auto drift =
        tagnn::obs::analyze::detect_drift_against(rec, history);
    history.push_back(std::move(rec));
    if (history.size() > kHistory) history.erase(history.begin());

    std::ostringstream frame_text;
    render(frame_text, o, f, drift);
    if (!o.once && o.color) std::cout << "\x1b[H\x1b[2J";  // home + clear
    std::cout << frame_text.str() << std::flush;

    ++rendered;
    if (o.once || (o.frames > 0 && rendered >= o.frames)) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(o.interval_ms));
  }
}
