// tagnn_report — render and interrogate perf-doctor artifacts.
//
// Subcommands:
//   render        build a self-contained HTML report from a run report
//                 (tagnn_sim --report-out), a metrics snapshot, a Chrome
//                 trace path, and/or a run ledger.
//   drift         judge the last ledger entry against its per-workload
//                 history (exit 0 = clean, 3 = drift found, 1 = error).
//   ledger-append derive a tagnn.run.v1 ledger entry from a
//                 bench_regress BENCH.json and append it.
//
// Usage:
//   tagnn_report render --out report.html [--report report.json]
//                [--metrics metrics.json] [--trace trace.json]
//                [--ledger runs.jsonl] [--title T] [--sparkline METRIC]
//   tagnn_report drift --ledger runs.jsonl [--k X] [--min-history N]
//   tagnn_report ledger-append --ledger runs.jsonl --bench BENCH.json
//                [--workload NAME] [--env TAG]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analyze/cycle_stack.hpp"
#include "obs/analyze/ledger.hpp"
#include "obs/analyze/report_html.hpp"
#include "obs/analyze/roofline.hpp"
#include "obs/json.hpp"

namespace {

using namespace tagnn::obs::analyze;
using tagnn::obs::json_parse;
using tagnn::obs::JsonValue;

[[noreturn]] void usage() {
  std::cerr
      << "usage: tagnn_report render --out FILE [--report FILE]\n"
         "                    [--metrics FILE] [--trace FILE]\n"
         "                    [--ledger FILE] [--title T] "
         "[--sparkline METRIC]\n"
         "       tagnn_report drift --ledger FILE [--k X] "
         "[--min-history N]\n"
         "       tagnn_report ledger-append --ledger FILE --bench FILE\n"
         "                    [--workload NAME] [--env TAG]\n";
  std::exit(2);
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

JsonValue parse_file(const std::string& path) {
  JsonValue v;
  std::string err;
  if (!json_parse(read_file(path), &v, &err)) {
    throw std::runtime_error(path + ": " + err);
  }
  return v;
}

// Flag map over "--flag value" pairs (split_eq handled by caller being
// strict: this tool only documents the space-separated spelling, but
// accepts --flag=value too).
struct Flags {
  std::vector<std::pair<std::string, std::string>> kv;

  std::string get(std::string_view name, std::string fallback = "") const {
    for (const auto& [k, v] : kv) {
      if (k == name) return v;
    }
    return fallback;
  }
};

Flags parse_flags(const std::vector<std::string>& args) {
  Flags f;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string a = args[i];
    if (a.size() < 3 || a[0] != '-' || a[1] != '-') usage();
    const std::size_t eq = a.find('=');
    if (eq != std::string::npos) {
      f.kv.emplace_back(a.substr(0, eq), a.substr(eq + 1));
      continue;
    }
    if (i + 1 >= args.size()) usage();
    f.kv.emplace_back(a, args[++i]);
  }
  return f;
}

// --- render -----------------------------------------------------------

RooflineResult roofline_from_json(const JsonValue& j) {
  RooflineResult r;
  r.label = j.string_at("label", "run");
  r.verdict = j.string_at("verdict", "compute-bound");
  const JsonValue* ai = j.find("arithmetic_intensity");
  if (ai != nullptr && ai->is_number()) {
    r.arithmetic_intensity = ai->as_number();
  } else {
    r.infinite_intensity = true;
  }
  r.ridge = j.number_at("ridge");
  r.attainable_macs_per_cycle = j.number_at("attainable_macs_per_cycle");
  r.achieved_macs_per_cycle = j.number_at("achieved_macs_per_cycle");
  r.headroom_pct = j.number_at("headroom_pct");
  r.peak_macs_per_cycle = j.number_at("peak_macs_per_cycle");
  r.peak_bytes_per_cycle = j.number_at("peak_bytes_per_cycle");
  return r;
}

CycleStack stack_from_json(const JsonValue& j) {
  CycleStack s;
  s.label = j.string_at("label");
  s.total = static_cast<std::uint64_t>(j.number_at("total"));
  if (const JsonValue* comps = j.find("components");
      comps != nullptr && comps->is_object()) {
    for (const auto& [name, c] : comps->as_object()) {
      CycleStackComponent out;
      out.name = name;
      out.busy = static_cast<std::uint64_t>(c.number_at("busy"));
      out.attributed = static_cast<std::uint64_t>(c.number_at("attributed"));
      out.share_pct = c.number_at("share_pct");
      s.components.push_back(std::move(out));
    }
  }
  s.dominant = j.string_at("dominant");
  s.dominant_pct = j.number_at("dominant_pct");
  if (const JsonValue* hints = j.find("hints");
      hints != nullptr && hints->is_array()) {
    for (const JsonValue& h : hints->as_array()) {
      if (h.is_string()) s.hints.push_back(h.as_string());
    }
  }
  return s;
}

MemDiagnosis memory_from_json(const JsonValue& j) {
  MemDiagnosis d;
  if (const JsonValue* hf = j.find("has_fit")) d.has_fit = hf->as_bool();
  d.observed_scale = j.number_at("observed_scale");
  d.target_scale = j.number_at("target_scale");
  d.vertices = static_cast<std::uint64_t>(j.number_at("vertices"));
  d.edges = static_cast<std::uint64_t>(j.number_at("edges"));
  d.snapshots = static_cast<std::uint64_t>(j.number_at("snapshots"));
  d.bytes_per_vertex = j.number_at("bytes_per_vertex");
  d.bytes_per_edge = j.number_at("bytes_per_edge");
  d.budget_bytes = static_cast<std::uint64_t>(j.number_at("budget_bytes"));
  d.observed_total_bytes =
      static_cast<std::uint64_t>(j.number_at("observed_total_bytes"));
  d.projected_total_bytes =
      static_cast<std::uint64_t>(j.number_at("projected_total_bytes"));
  if (const JsonValue* ob = j.find("over_budget")) d.over_budget = ob->as_bool();
  d.first_over_budget = j.string_at("first_over_budget");
  if (const JsonValue* subs = j.find("subsystems");
      subs != nullptr && subs->is_array()) {
    for (const JsonValue& s : subs->as_array()) {
      SubsystemFit f;
      f.subsystem = s.string_at("subsystem");
      f.high_water_bytes =
          static_cast<std::uint64_t>(s.number_at("high_water_bytes"));
      f.basis = s.string_at("basis");
      f.bytes_per_basis = s.number_at("bytes_per_basis");
      f.projected_bytes =
          static_cast<std::uint64_t>(s.number_at("projected_bytes"));
      d.fits.push_back(std::move(f));
    }
  }
  return d;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

int cmd_render(const Flags& f) {
  const std::string out = f.get("--out");
  if (out.empty()) usage();

  HtmlReportInputs in;
  in.title = f.get("--title", "TaGNN perf report");
  in.trace_path = f.get("--trace");
  in.sparkline_metric = f.get("--sparkline");

  const std::string report_path = f.get("--report");
  if (!report_path.empty()) {
    const JsonValue rep = parse_file(report_path);
    in.summary.emplace_back("workload", rep.string_at("workload", "?"));
    if (const JsonValue* cyc = rep.find("cycles")) {
      in.summary.emplace_back("cycles", fmt(cyc->number_at("total")));
    }
    in.summary.emplace_back("seconds", fmt(rep.number_at("seconds")));
    in.summary.emplace_back("dram_bytes", fmt(rep.number_at("dram_bytes")));
    if (const JsonValue* diag = rep.find("diagnosis")) {
      if (const JsonValue* roof = diag->find("roofline")) {
        in.rooflines.push_back(roofline_from_json(*roof));
        in.summary.emplace_back("verdict", in.rooflines.back().verdict);
      }
      if (const JsonValue* cs = diag->find("cycle_stack")) {
        if (const JsonValue* agg = cs->find("aggregate")) {
          in.stacks.push_back(stack_from_json(*agg));
          in.summary.emplace_back("dominant unit",
                                  in.stacks.back().dominant);
        }
        if (const JsonValue* wins = cs->find("windows");
            wins != nullptr && wins->is_array()) {
          for (const JsonValue& w : wins->as_array()) {
            in.stacks.push_back(stack_from_json(w));
          }
        }
      }
      if (const JsonValue* memj = diag->find("memory");
          memj != nullptr && memj->is_object()) {
        in.memory = memory_from_json(*memj);
        in.has_memory = true;
        if (in.memory.has_fit) {
          in.summary.emplace_back(
              "projected memory @ scale " + fmt(in.memory.target_scale),
              fmt(static_cast<double>(in.memory.projected_total_bytes) /
                  (1024.0 * 1024.0)) +
                  " MiB" +
                  (in.memory.over_budget
                       ? " (OVER BUDGET: " + in.memory.first_over_budget + ")"
                       : ""));
        }
      }
    }
  }

  const std::string metrics_path = f.get("--metrics");
  if (!metrics_path.empty()) {
    const JsonValue snap = parse_file(metrics_path);
    if (const JsonValue* m = snap.find("metrics")) {
      // Rebuild a roofline from the published gauges when no run report
      // provided one.
      const JsonValue* macs = m->find("tagnn.accel.roofline.macs");
      if (in.rooflines.empty() && macs != nullptr) {
        RooflineInput ri;
        ri.label = "metrics";
        ri.macs = macs->number_at("value");
        const auto gauge = [&](const char* name) {
          const JsonValue* g = m->find(name);
          return g != nullptr ? g->number_at("value") : 0.0;
        };
        ri.dram_bytes = gauge("tagnn.accel.roofline.dram_bytes");
        ri.total_cycles = gauge("tagnn.accel.roofline.total_cycles");
        ri.peak_macs_per_cycle =
            gauge("tagnn.accel.roofline.peak_macs_per_cycle");
        ri.peak_bytes_per_cycle =
            gauge("tagnn.accel.roofline.peak_bytes_per_cycle");
        in.rooflines.push_back(analyze_roofline(ri));
        in.summary.emplace_back("verdict (from metrics)",
                                in.rooflines.back().verdict);
      }
      in.summary.emplace_back(
          "metrics captured", fmt(static_cast<double>(m->as_object().size())));
    }
  }

  const std::string ledger_path = f.get("--ledger");
  if (!ledger_path.empty()) {
    std::size_t skipped = 0;
    in.ledger = load_ledger(ledger_path, &skipped);
    in.drift = detect_drift(in.ledger);
    in.summary.emplace_back("ledger entries",
                            fmt(static_cast<double>(in.ledger.size())));
    if (skipped > 0) {
      std::cerr << "warning: skipped " << skipped
                << " unparseable ledger line(s)\n";
    }
  }

  std::ofstream of(out, std::ios::binary);
  if (!of) throw std::runtime_error("cannot open " + out);
  of << render_html_report(in);
  std::cout << "wrote " << out << " (" << in.rooflines.size()
            << " roofline(s), " << in.stacks.size() << " stack(s), "
            << in.ledger.size() << " ledger entrie(s), " << in.drift.size()
            << " drift finding(s))\n";
  return 0;
}

// --- drift ------------------------------------------------------------

int cmd_drift(const Flags& f) {
  const std::string ledger_path = f.get("--ledger");
  if (ledger_path.empty()) usage();
  DriftOptions opts;
  if (const std::string k = f.get("--k"); !k.empty()) {
    opts.k = std::atof(k.c_str());
  }
  if (const std::string mh = f.get("--min-history"); !mh.empty()) {
    opts.min_history = static_cast<std::size_t>(std::atoi(mh.c_str()));
  }
  std::size_t skipped = 0;
  const std::vector<RunRecord> ledger = load_ledger(ledger_path, &skipped);
  if (ledger.empty()) {
    std::cout << "ledger " << ledger_path << " is empty ("
              << skipped << " skipped line(s)); nothing to judge\n";
    return 0;
  }
  const std::vector<DriftFinding> findings = detect_drift(ledger, opts);
  if (findings.empty()) {
    std::cout << "no drift: last '" << ledger.back().workload
              << "' entry is within " << opts.k
              << " robust sigmas of its history (" << ledger.size()
              << " entries)\n";
    return 0;
  }
  for (const DriftFinding& d : findings) {
    std::cout << "DRIFT " << d.workload << " " << d.metric << ": value "
              << fmt(d.value) << " vs median " << fmt(d.median)
              << " (threshold " << fmt(d.threshold) << ", severity "
              << fmt(d.severity) << "x)\n";
  }
  return 3;
}

// --- ledger-append ----------------------------------------------------

int cmd_ledger_append(const Flags& f) {
  const std::string ledger_path = f.get("--ledger");
  const std::string bench_path = f.get("--bench");
  if (ledger_path.empty() || bench_path.empty()) usage();

  const JsonValue bench = parse_file(bench_path);
  if (bench.string_at("schema") != "tagnn.bench_regress.v1") {
    throw std::runtime_error(bench_path +
                             ": expected schema tagnn.bench_regress.v1");
  }
  const bool quick =
      bench.find("quick") != nullptr && bench.find("quick")->as_bool();

  RunRecord rec;
  rec.workload = f.get(
      "--workload", quick ? "bench_regress.quick" : "bench_regress.full");
  const char* sha = std::getenv("TAGNN_GIT_SHA");
  rec.git_sha = sha != nullptr ? sha : "";
  rec.env = f.get("--env", "bench");

  std::ostringstream canonical;
  canonical << "bench_regress;quick=" << quick
            << ";threads=" << bench.number_at("threads");
  const JsonValue* entries = bench.find("entries");
  if (entries == nullptr || !entries->is_array()) {
    throw std::runtime_error(bench_path + ": missing entries[]");
  }
  for (const JsonValue& e : entries->as_array()) {
    const std::string name = e.string_at("name", "?");
    canonical << ";" << name;
    rec.set(name + ".naive_sec", e.number_at("naive_sec"));
    rec.set(name + ".opt_sec", e.number_at("opt_sec"));
    rec.set(name + ".speedup", e.number_at("speedup"));
    rec.set(name + ".macs", e.number_at("macs"));
    rec.set(name + ".bytes", e.number_at("bytes"));
    rec.set(name + ".cycles", e.number_at("cycles"));
  }
  rec.config_fingerprint = fingerprint(canonical.str());

  append_run_record(ledger_path, rec);
  std::cout << "appended " << rec.workload << " (" << rec.metrics.size()
            << " metrics, " << rec.config_fingerprint << ") to "
            << ledger_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
  try {
    const Flags f = parse_flags(args);
    if (cmd == "render") return cmd_render(f);
    if (cmd == "drift") return cmd_drift(f);
    if (cmd == "ledger-append") return cmd_ledger_append(f);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  usage();
}
