// tagnn_loadgen: load generator for tagnn_serve.
//
// Modes (docs/SERVING.md):
//   closed    C workers, each with one request in flight (closed loop).
//   open      Poisson arrivals at --qps across C sender threads; late
//             senders fire immediately, timed from the scheduled arrival.
//   saturate  repeats open-loop steps with geometrically ramped QPS
//             until the step violates the p99 target, sheds more than
//             --max-shed-rate or answers below 95% of the rate its
//             schedule offered; reports max sustained throughput.
//
// The request mix is heavy-tailed: ingests advance the stream by k
// snapshots with P(k) ~ k^-1.5 (k in {1,2,3,4,6,8}), so occasional
// requests carry a window's worth of engine work. Every random choice
// flows through tagnn::Rng from --seed: a given (seed, mode, qps,
// tenant set) emits one fixed request sequence.
//
// Emits a tagnn.loadgen.v1 JSON summary (stdout and --out) and can
// append a tagnn.run.v1 ledger record (--ledger) for drift tracking.
// Exit 0 on success (shed responses are backpressure, not errors),
// 1 on transport/protocol errors, 2 on usage errors.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "obs/analyze/ledger.hpp"
#include "obs/cli.hpp"
#include "obs/json.hpp"
#include "obs/live/http.hpp"
#include "obs/metrics.hpp"

namespace {

using tagnn::Rng;
using tagnn::Stopwatch;
using tagnn::obs::HistogramStats;
using tagnn::obs::live::http_get;
using tagnn::obs::live::http_post;

struct Options {
  std::string host = "127.0.0.1";
  int port = -1;
  std::string mode = "closed";
  double duration_s = 3.0;
  int concurrency = 4;
  double qps = 20.0;
  double ingest_ratio = 0.5;
  std::uint64_t seed = 1;
  int timeout_ms = 10000;
  std::string out;
  std::string ledger;
  std::string env = "local";
  // saturate mode
  double qps_start = 4.0;
  double qps_factor = 1.6;
  double qps_max = 4096.0;
  double step_s = 2.0;
  double max_shed_rate = 0.01;
};

struct TenantInfo {
  std::string name;
  std::uint64_t num_vertices = 0;
};

/// Aggregated over one phase (= the whole run, or one saturation step).
struct PhaseStats {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  HistogramStats lat_ms;
  double elapsed_s = 0;

  double achieved_qps() const {
    return elapsed_s > 0 ? static_cast<double>(ok + shed) / elapsed_s : 0;
  }
  double shed_rate() const {
    const auto denom = ok + shed;
    return denom > 0 ? static_cast<double>(shed) / denom : 0;
  }
};

class StatsSink {
 public:
  void record(double ms, int status, bool transport_ok) {
    std::lock_guard<std::mutex> lock(mu_);
    ++s_.sent;
    if (!transport_ok) {
      ++s_.errors;
      return;
    }
    if (status == 200) {
      ++s_.ok;
    } else if (status == 429) {
      ++s_.shed;
    } else {
      ++s_.errors;
    }
    if (s_.lat_ms.count == 0) {
      s_.lat_ms.min = ms;
      s_.lat_ms.max = ms;
    } else {
      s_.lat_ms.min = std::min(s_.lat_ms.min, ms);
      s_.lat_ms.max = std::max(s_.lat_ms.max, ms);
    }
    ++s_.lat_ms.count;
    s_.lat_ms.sum += ms;
    ++s_.lat_ms.buckets[tagnn::obs::histogram_bucket(ms)];
  }
  PhaseStats take(double elapsed_s) {
    std::lock_guard<std::mutex> lock(mu_);
    PhaseStats out = s_;
    out.elapsed_s = elapsed_s;
    s_ = PhaseStats{};
    return out;
  }

 private:
  std::mutex mu_;
  PhaseStats s_;
};

/// Heavy-tail advance distribution: P(k) ~ k^-1.5 over these steps.
const std::vector<std::uint32_t>& advance_steps() {
  static const std::vector<std::uint32_t> k = {1, 2, 3, 4, 6, 8};
  return k;
}

std::uint32_t sample_advance(Rng& rng) {
  static const std::vector<double> cdf = [] {
    std::vector<double> c;
    double total = 0;
    for (std::uint32_t k : advance_steps()) total += 1.0 / (k * std::sqrt(double(k)));
    double acc = 0;
    for (std::uint32_t k : advance_steps()) {
      acc += 1.0 / (k * std::sqrt(double(k))) / total;
      c.push_back(acc);
    }
    return c;
  }();
  const double u = rng.next_double();
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    if (u <= cdf[i]) return advance_steps()[i];
  }
  return advance_steps().back();
}

struct BuiltRequest {
  std::string path;
  std::string body;
};

BuiltRequest build_request(Rng& rng, const Options& o,
                           const std::vector<TenantInfo>& tenants) {
  const TenantInfo& t = tenants[rng.next_below(tenants.size())];
  BuiltRequest r;
  if (rng.chance(o.ingest_ratio)) {
    r.path = "/v1/ingest?tenant=" + t.name;
    r.body = "{\"advance\": " + std::to_string(sample_advance(rng)) + "}";
  } else {
    r.path = "/v1/infer?tenant=" + t.name;
    const std::uint64_t n = rng.next_below(3);  // 0..2 feature rows
    std::ostringstream os;
    os << "{\"vertices\": [";
    for (std::uint64_t i = 0; i < n && t.num_vertices > 0; ++i) {
      if (i != 0) os << ", ";
      os << rng.next_below(t.num_vertices);
    }
    os << "]}";
    r.body = os.str();
  }
  return r;
}

/// Runs one phase; rate <= 0 means closed-loop.
PhaseStats run_phase(const Options& o, const std::vector<TenantInfo>& tenants,
                     StatsSink& sink, double rate_qps, double duration_s,
                     std::uint64_t seed_salt) {
  const int workers = std::max(1, o.concurrency);
  const Stopwatch phase;
  static std::mutex err_mu;  // serialises failure diagnostics on stderr
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(o.seed + seed_salt * 1000003ull +
              static_cast<std::uint64_t>(w) * 7919ull);
      const double thread_rate = rate_qps / workers;
      double next_arrival_s = 0;
      for (;;) {
        // Closed loop times a request from its send. Open loop sends
        // every arrival scheduled inside the phase, however late, and
        // times it from that arrival.
        double start_s = phase.seconds();
        if (rate_qps > 0) {
          // Poisson arrivals: exponential inter-arrival gaps.
          next_arrival_s +=
              -std::log(1.0 - rng.next_double()) / thread_rate;
          if (next_arrival_s >= duration_s) break;
          start_s = next_arrival_s;
          const double wait_s = next_arrival_s - phase.seconds();
          if (wait_s > 0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(wait_s));
          }
        } else if (start_s >= duration_s) {
          break;
        }
        const BuiltRequest req = build_request(rng, o, tenants);
        const auto res = http_post(o.host, static_cast<std::uint16_t>(o.port),
                                   req.path, req.body, o.timeout_ms);
        if (!res.ok || (res.status != 200 && res.status != 429)) {
          std::lock_guard<std::mutex> lock(err_mu);
          std::cerr << "loadgen: request failed: " << req.path << " -> "
                    << (res.ok ? "HTTP " + std::to_string(res.status) +
                                     " " + res.body.substr(0, 200)
                               : res.error)
                    << "\n";
        }
        sink.record((phase.seconds() - start_s) * 1e3, res.status, res.ok);
      }
    });
  }
  for (auto& t : threads) t.join();
  return sink.take(phase.seconds());
}

void write_phase_json(std::ostream& os, const PhaseStats& s) {
  const auto num = [&os](double v) { tagnn::obs::write_json_number(os, v); };
  os << "{\"sent\": " << s.sent << ", \"ok\": " << s.ok << ", \"shed\": "
     << s.shed << ", \"errors\": " << s.errors << ", \"elapsed_s\": ";
  num(s.elapsed_s);
  os << ", \"achieved_qps\": ";
  num(s.achieved_qps());
  os << ", \"shed_rate\": ";
  num(s.shed_rate());
  os << ", \"latency_ms\": {\"count\": " << s.lat_ms.count << ", \"p50\": ";
  num(s.lat_ms.p50());
  os << ", \"p90\": ";
  num(s.lat_ms.p90());
  os << ", \"p99\": ";
  num(s.lat_ms.p99());
  os << ", \"mean\": ";
  num(s.lat_ms.mean());
  os << ", \"max\": ";
  num(s.lat_ms.max);
  os << "}}";
}

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --port P [options]\n"
      << "  --host H           server address (default 127.0.0.1)\n"
      << "  --mode M           closed | open | saturate (default closed)\n"
      << "  --duration-s D     phase length (default 3)\n"
      << "  --concurrency C    worker/sender threads (default 4)\n"
      << "  --qps Q            open-loop arrival rate (default 20)\n"
      << "  --ingest-ratio R   ingest fraction of the mix (default 0.5)\n"
      << "  --seed S           request-sequence seed (default 1)\n"
      << "  --timeout-ms T     per-request timeout (default 10000)\n"
      << "  --out FILE         write the tagnn.loadgen.v1 summary\n"
      << "  --ledger FILE      append a tagnn.run.v1 record\n"
      << "  --env TAG          ledger environment tag (default local)\n"
      << "  saturate: --qps-start --qps-factor --qps-max --step-s\n"
      << "            --max-shed-rate (defaults 4, 1.6, 4096, 2, 0.01)\n";
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
      if (a == "--host") o.host = value(i, a);
      else if (a == "--port") o.port = std::stoi(value(i, a));
      else if (a == "--mode") o.mode = value(i, a);
      else if (a == "--duration-s") o.duration_s = std::stod(value(i, a));
      else if (a == "--concurrency") o.concurrency = std::stoi(value(i, a));
      else if (a == "--qps") o.qps = std::stod(value(i, a));
      else if (a == "--ingest-ratio") o.ingest_ratio = std::stod(value(i, a));
      else if (a == "--seed") o.seed = std::stoull(value(i, a));
      else if (a == "--timeout-ms") o.timeout_ms = std::stoi(value(i, a));
      else if (a == "--out") o.out = value(i, a);
      else if (a == "--ledger") o.ledger = value(i, a);
      else if (a == "--env") o.env = value(i, a);
      else if (a == "--qps-start") o.qps_start = std::stod(value(i, a));
      else if (a == "--qps-factor") o.qps_factor = std::stod(value(i, a));
      else if (a == "--qps-max") o.qps_max = std::stod(value(i, a));
      else if (a == "--step-s") o.step_s = std::stod(value(i, a));
      else if (a == "--max-shed-rate") o.max_shed_rate = std::stod(value(i, a));
      else return usage(argv[0]);
    }
    if (o.port < 0 || o.port > 65535 ||
        (o.mode != "closed" && o.mode != "open" && o.mode != "saturate") ||
        o.duration_s <= 0 || o.concurrency < 1 || o.qps_factor <= 1.0) {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  // Discover tenants (and their vertex counts, for infer row picks).
  const auto tenants_doc =
      http_get(o.host, static_cast<std::uint16_t>(o.port), "/v1/tenants",
               o.timeout_ms);
  if (!tenants_doc.ok || tenants_doc.status != 200) {
    std::cerr << "loadgen: cannot reach /v1/tenants on " << o.host << ":"
              << o.port << ": "
              << (tenants_doc.ok ? "HTTP " + std::to_string(tenants_doc.status)
                                 : tenants_doc.error)
              << "\n";
    return 1;
  }
  std::vector<TenantInfo> tenants;
  {
    obs::JsonValue doc;
    std::string perr;
    if (!obs::json_parse(tenants_doc.body, &doc, &perr)) {
      std::cerr << "loadgen: bad /v1/tenants document: " << perr << "\n";
      return 1;
    }
    const auto* arr = doc.find("tenants");
    if (arr != nullptr && arr->is_array()) {
      for (const auto& t : arr->as_array()) {
        TenantInfo info;
        info.name = t.string_at("name");
        info.num_vertices =
            static_cast<std::uint64_t>(t.number_at("num_vertices", 0));
        if (!info.name.empty()) tenants.push_back(std::move(info));
      }
    }
  }
  if (tenants.empty()) {
    std::cerr << "loadgen: server reports no tenants\n";
    return 1;
  }

  // Prime every tenant with one window of snapshots so infer requests
  // never hit a cold (empty-state) tenant mid-run.
  for (const TenantInfo& t : tenants) {
    const auto res =
        http_post(o.host, static_cast<std::uint16_t>(o.port),
                  "/v1/ingest?tenant=" + t.name, "{\"advance\": 4}",
                  o.timeout_ms);
    if (!res.ok || res.status != 200) {
      std::cerr << "loadgen: priming " << t.name << " failed: "
                << (res.ok ? "HTTP " + std::to_string(res.status) : res.error)
                << "\n";
      return 1;
    }
    const auto inf =
        http_post(o.host, static_cast<std::uint16_t>(o.port),
                  "/v1/infer?tenant=" + t.name, "{}", o.timeout_ms);
    if (!inf.ok || inf.status != 200) {
      std::cerr << "loadgen: prime infer on " << t.name << " failed\n";
      return 1;
    }
  }

  // Read the server's latency targets so saturation judges each step
  // against the same p99 the server advertises.
  double target_p99_ms = 1000.0;
  {
    const auto slo = http_get(o.host, static_cast<std::uint16_t>(o.port),
                              "/slo.json", o.timeout_ms);
    obs::JsonValue doc;
    if (slo.ok && slo.status == 200 &&
        obs::json_parse(slo.body, &doc, nullptr)) {
      if (const auto* t = doc.find("targets_ms")) {
        target_p99_ms = t->number_at("p99", target_p99_ms);
      }
    }
  }

  StatsSink sink;
  PhaseStats total;
  std::vector<std::pair<double, PhaseStats>> steps;  // saturate: (qps, stats)
  double max_sustained_qps = 0;
  bool saturated = false;
  if (o.mode == "saturate") {
    double qps = o.qps_start;
    std::uint64_t salt = 0;
    while (qps <= o.qps_max) {
      const PhaseStats s =
          run_phase(o, tenants, sink, qps, o.step_s, ++salt);
      steps.emplace_back(qps, s);
      // A step keeps up when it answers >= 95% of the rate its schedule
      // offered; the last replies may come up to the p99 target late.
      const double offered = static_cast<double>(s.sent) / o.step_s;
      const double answered =
          static_cast<double>(s.ok + s.shed) /
          std::max(o.step_s, s.elapsed_s - target_p99_ms * 1e-3);
      std::cerr << "saturate: " << qps << " qps -> p99 "
                << s.lat_ms.p99() << " ms, shed " << 100 * s.shed_rate()
                << "%, answered " << answered << "/s of " << offered << "\n";
      total.sent += s.sent;
      total.ok += s.ok;
      total.shed += s.shed;
      total.errors += s.errors;
      total.elapsed_s += s.elapsed_s;
      const bool violated = s.lat_ms.p99() > target_p99_ms ||
                            s.shed_rate() > o.max_shed_rate ||
                            answered < 0.95 * offered;
      if (violated) {
        saturated = true;
        break;
      }
      max_sustained_qps = answered;
      qps *= o.qps_factor;
    }
    // Aggregate latency over the last step for the headline quantiles.
    if (!steps.empty()) total.lat_ms = steps.back().second.lat_ms;
  } else {
    total = run_phase(o, tenants, sink,
                      o.mode == "open" ? o.qps : 0.0, o.duration_s, 0);
  }

  std::ostringstream os;
  const auto num = [&os](double v) { obs::write_json_number(os, v); };
  os << "{\"schema\": \"tagnn.loadgen.v1\", \"mode\": \"" << o.mode
     << "\", \"host\": \"" << o.host << ":" << o.port
     << "\", \"tenants\": " << tenants.size() << ", \"concurrency\": "
     << o.concurrency << ", \"ingest_ratio\": ";
  num(o.ingest_ratio);
  os << ", \"seed\": " << o.seed << ", \"target_p99_ms\": ";
  num(target_p99_ms);
  os << ", \"result\": ";
  write_phase_json(os, total);
  if (o.mode == "saturate") {
    os << ", \"saturation\": {\"saturated\": "
       << (saturated ? "true" : "false") << ", \"max_sustained_qps\": ";
    num(max_sustained_qps);
    os << ", \"max_shed_rate\": ";
    num(o.max_shed_rate);
    os << ", \"steps\": [";
    for (std::size_t i = 0; i < steps.size(); ++i) {
      if (i != 0) os << ", ";
      os << "{\"qps\": ";
      num(steps[i].first);
      os << ", \"result\": ";
      write_phase_json(os, steps[i].second);
      os << "}";
    }
    os << "]}";
  }
  os << "}\n";
  const std::string summary = os.str();
  std::cout << summary;
  if (!o.out.empty()) {
    std::ofstream f(o.out);
    if (!f) {
      std::cerr << "loadgen: cannot open " << o.out << "\n";
      return 1;
    }
    f << summary;
  }

  if (!o.ledger.empty()) {
    obs::analyze::RunRecord rec;
    rec.workload = "loadgen." + o.mode;
    const char* sha = std::getenv("TAGNN_GIT_SHA");
    rec.git_sha = sha ? sha : "";
    rec.env = o.env;
    std::ostringstream canonical;
    canonical << "mode=" << o.mode << ";concurrency=" << o.concurrency
              << ";qps=" << o.qps << ";ingest_ratio=" << o.ingest_ratio
              << ";seed=" << o.seed << ";tenants=" << tenants.size();
    rec.config_fingerprint = obs::analyze::fingerprint(canonical.str());
    rec.set("achieved_qps", total.achieved_qps());
    rec.set("p50_ms", total.lat_ms.p50());
    rec.set("p90_ms", total.lat_ms.p90());
    rec.set("p99_ms", total.lat_ms.p99());
    rec.set("shed_rate", total.shed_rate());
    rec.set("errors", static_cast<double>(total.errors));
    if (o.mode == "saturate") {
      rec.set("max_sustained_qps", max_sustained_qps);
    }
    obs::analyze::append_run_record(o.ledger, rec);
    std::cerr << "loadgen: appended " << rec.workload << " to " << o.ledger
              << "\n";
  }

  if (total.errors > 0) {
    std::cerr << "loadgen: " << total.errors << " failed request(s)\n";
    return 1;
  }
  return 0;
}
