#include "serve_bench.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/datasets.hpp"
#include "nn/engine.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/tenant.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace tagnn;
using serve::Reply;
using serve::Request;
using serve::ServeCore;
using serve::Status;

namespace {

constexpr int kTenants = 2;
constexpr std::size_t kStreamSnapshots = 12;
// Share of the serving budget spent at rung 0, the fixed rate the
// latency metrics are reported at. It must yield >= 1000 samples so
// that p99 leaves ten above it (checked).
constexpr double kFixedShare = 0.5;
// The fixed rate: below the knee of every workload on a 4-vCPU host.
constexpr double kFixedRps = 200;
// Tail-latency limit a ladder rung must meet to count as sustained.
constexpr double kLimitMs = 100;
// Ladder rungs: the first offers kLadderStart times the fixed rate, each
// next one kLadderStep times the previous, for kRungSeconds each; the
// ladder stops after kStopAfterSaturated saturated rungs in a row or
// when the serving budget is spent.
constexpr double kLadderStart = 2.0;
constexpr double kLadderStep = 1.2;
constexpr double kRungSeconds = 0.75;
constexpr int kStopAfterSaturated = 2;

std::string tenant_name(int i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "t%d", i);
  return buf;
}

serve::TenantConfig tenant_config(const Workload& wl, std::uint64_t seed,
                                  int i) {
  serve::TenantConfig tc;
  tc.name = tenant_name(i);
  tc.dataset = wl.serve.dataset;
  tc.scale = wl.serve.scale;
  tc.stream_snapshots = kStreamSnapshots;
  tc.model = wl.serve.model;
  tc.weight_seed = seed + static_cast<std::uint64_t>(i);
  return tc;
}

// FNV-1a over the feature matrix bytes, as the tenant renders digests.
std::string digest_of(const Matrix& m) {
  std::uint64_t h = 14695981039346656037ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
  for (std::size_t i = 0; i < m.size() * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "h-%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

struct Planned {
  double offset = 0;  // seconds after the rung starts
  int tenant = 0;
  bool ingest = false;
  std::string body;
};

// Outcome of one request, written by the worker thread that replies.
struct Record {
  double due = 0;
  double done = 0;
  double late = 0;      // submit time - due time (generator lateness)
  double parse = 0;
  double admit = 0;
  double render = 0;
  bool shed = false;
  Status status = Status::kOk;
  std::string digest;
};

struct Rung {
  double rate = 0;
  std::vector<Planned> reqs;
  std::vector<Record> recs;
  double start = 0;
  double last_done = 0;
  double backlog_first = 0, backlog_second = 0;  // mean outstanding
  // Verdict (judge()).
  std::vector<double> lat;  // seconds from due time; shed = infinity
  double achieved = 0;      // completed OK per second
  bool sustained = false;
};

// Vertices present in every snapshot of the stream: explicit edge adds
// between them are valid whatever the tenant's stream position.
std::vector<VertexId> always_present(const DynamicGraph& g) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    bool all = true;
    for (SnapshotId t = 0; t < g.num_snapshots() && all; ++t) {
      all = g.snapshot(t).present[v];
    }
    if (all) out.push_back(v);
  }
  return out;
}

// About one ingest per seven infers. Ingests are heavy-tailed stream
// advances (Pareto, alpha 1, capped at one window) or explicit
// add/remove edge deltas; infers read one to four vertices. The mix
// keeps p50 inside the plateau of requests that only wait out the batch
// window and p99 inside the plateau of requests that run or queue
// behind a full window, rather than on the cliff between plateaus,
// where a few requests more or less of one kind move the percentile.
Planned plan_request(Rng& rng, const DynamicGraph& stream,
                     const std::vector<VertexId>& stable) {
  Planned p;
  p.tenant = static_cast<int>(rng.next_below(kTenants));
  p.ingest = rng.chance(1.0 / 8.0);
  std::string& b = p.body;
  if (!p.ingest) {
    b = "{\"vertices\": [";
    const auto k = 1 + rng.next_below(4);
    for (std::uint64_t i = 0; i < k; ++i) {
      b += (i ? ", " : "") +
           std::to_string(rng.next_below(stream.num_vertices()));
    }
    b += "]}";
  } else if (rng.chance(0.7)) {
    const double u = 1.0 - rng.next_double();
    const auto k = std::min(4.0, std::floor(1.0 / u));
    b = "{\"advance\": " + std::to_string(static_cast<int>(k)) + "}";
  } else {
    b = "{\"add_edges\": [";
    const auto adds = 1 + rng.next_below(3);
    for (std::uint64_t i = 0; i < adds; ++i) {
      const VertexId u = stable[rng.next_below(stable.size())];
      const VertexId v = stable[rng.next_below(stable.size())];
      b += (i ? ", [" : "[") + std::to_string(u) + ", " + std::to_string(v) +
           "], [" + std::to_string(v) + ", " + std::to_string(u) + "]";
    }
    b += "], \"remove_edges\": [";
    const Snapshot& s0 = stream.snapshot(0);
    const auto removes = rng.next_below(3);
    for (std::uint64_t i = 0; i < removes; ++i) {
      const VertexId u =
          static_cast<VertexId>(rng.next_below(s0.num_vertices()));
      const auto nb = s0.graph.neighbors(u);
      const VertexId v = nb.empty() ? u : nb[rng.next_below(nb.size())];
      b += (i ? ", [" : "[") + std::to_string(u) + ", " + std::to_string(v) +
           "]";
    }
    b += "]}";
  }
  return p;
}

bool parse(const Planned& p, Request* req) {
  std::string err;
  req->tenant = tenant_name(p.tenant);
  req->op = p.ingest ? serve::OpKind::kIngest : serve::OpKind::kInfer;
  return p.ingest ? serve::parse_ingest(p.body, &req->ingest, &err)
                  : serve::parse_infer(p.body, &req->infer, &err);
}

// Expected tenant state: the same request sequence fed through batch
// ConcurrentEngine runs that carry state from one window to the next,
// cut where the tenant's stream buffer fills or an infer flushes it.
class Mirror {
 public:
  Mirror(const serve::TenantConfig& tc, const DynamicGraph& stream)
      : stream_(stream),
        weights_(DgnnWeights::init(ModelConfig::preset(tc.model),
                                   stream.feature_dim(), tc.weight_seed)) {
    opts_ = tc.engine;
    opts_.store_outputs = false;
    opts_.count_redundancy = false;
  }

  /// Applies one accepted request; for an infer returns the digest the
  /// reply must carry.
  std::string apply(const Request& req) {
    if (req.op == serve::OpKind::kInfer) {
      if (!buffer_.empty()) process();
      return digest_of(carry_.h);
    }
    for (std::uint32_t i = 0; i < req.ingest.advance; ++i) {
      cur_ = stream_.snapshot(
          static_cast<SnapshotId>(pos_++ % stream_.num_snapshots()));
      push(cur_);
    }
    if (!req.ingest.add_edges.empty() || !req.ingest.remove_edges.empty()) {
      std::vector<std::pair<VertexId, VertexId>> edges;
      const VertexId n = cur_.num_vertices();
      for (VertexId u = 0; u < n; ++u) {
        for (VertexId v : cur_.graph.neighbors(u)) edges.emplace_back(u, v);
      }
      for (const auto& e : req.ingest.remove_edges) {
        edges.erase(std::remove(edges.begin(), edges.end(), e), edges.end());
      }
      for (const auto& e : req.ingest.add_edges) edges.push_back(e);
      Snapshot next;
      next.graph = CsrGraph::from_edges(n, std::move(edges));
      next.features = cur_.features;
      next.present = cur_.present;
      cur_ = std::move(next);
      push(cur_);
    }
    return {};
  }

 private:
  void push(const Snapshot& s) {
    buffer_.push_back(s);
    if (buffer_.size() >= opts_.window_size) process();
  }
  void process() {
    const DynamicGraph window("mirror", std::move(buffer_));
    buffer_.clear();
    ConcurrentEngine(opts_).run(window, weights_, &carry_);
  }

  const DynamicGraph& stream_;
  DgnnWeights weights_;
  EngineOptions opts_;
  std::vector<Snapshot> buffer_;
  StreamCarry carry_;
  Snapshot cur_;
  std::size_t pos_ = 0;
};

double batch_size_sum(double* count) {
  const auto snap = obs::MetricsRegistry::global().snapshot();
  const obs::MetricValue* m = snap.find("tagnn.serve.batch_size");
  *count = m != nullptr ? static_cast<double>(m->hist.count) : 0;
  return m != nullptr ? m->hist.sum : 0;
}

// Sends one rung on the generator (calling) thread and waits for every
// accepted request to be answered.
void drive(ServeCore& core, Rung& r) {
  r.recs.assign(r.reqs.size(), Record{});
  std::atomic<std::size_t> done{0};
  std::size_t accepted = 0;
  double out_first = 0, out_second = 0;
  r.start = now_s() + 0.002;
  for (std::size_t i = 0; i < r.reqs.size(); ++i) {
    Record& rec = r.recs[i];
    rec.due = r.start + r.reqs[i].offset;
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(rec.due))));
    const double t0 = now_s();
    rec.late = t0 - rec.due;
    Request req;
    const bool parsed = parse(r.reqs[i], &req);
    const double t1 = now_s();
    rec.parse = t1 - t0;
    // Runs on the tenant's worker; `rec` and `done` outlive it because
    // this function waits for every accepted reply before returning.
    auto on_reply = [&rec, &done](const Reply& reply) {
      const double r0 = now_s();
      const std::string body = serve::reply_json(reply);
      rec.done = now_s();
      rec.render = rec.done - r0;
      rec.status = reply.status;
      rec.digest = reply.digest;
      done.fetch_add(1, std::memory_order_release);
    };
    const Status s = parsed ? core.try_submit(std::move(req), on_reply)
                            : Status::kBadRequest;
    rec.admit = now_s() - t1;
    if (s == Status::kOk) {
      ++accepted;
    } else {
      rec.shed = true;
      rec.status = s;
    }
    const double outstanding = static_cast<double>(
        accepted - done.load(std::memory_order_acquire));
    (2 * i < r.reqs.size() ? out_first : out_second) += outstanding;
  }
  const double half = static_cast<double>(r.reqs.size()) / 2.0;
  r.backlog_first = out_first / std::max(1.0, half);
  r.backlog_second = out_second / std::max(1.0, half);
  while (done.load(std::memory_order_acquire) < accepted) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  r.last_done = r.start;
  for (const Record& rec : r.recs) {
    if (!rec.shed) r.last_done = std::max(r.last_done, rec.done);
  }
}

// A rung is sustained when nothing was shed, its tail latency (the
// highest percentile with ten samples above it; shed requests count as
// missing the limit) is within the limit, it completed >= 95% of the
// offered rate, the generator kept to the schedule, and the backlog did
// not grow from the first half of the rung to the second.
void judge(Rung& r, std::size_t k, double limit_s) {
  std::vector<double> late;
  std::size_t ok = 0, shed = 0;
  r.lat.clear();
  for (const Record& rec : r.recs) {
    late.push_back(rec.late);
    if (rec.shed) ++shed;
    if (rec.status == Status::kOk && !rec.shed) ++ok;
    r.lat.push_back(rec.shed ? std::numeric_limits<double>::infinity()
                             : rec.done - rec.due);
  }
  const double q = tail_quantile(r.lat.size());
  const double tail = percentile(r.lat, q);
  // Completions per second of schedule; the last requests may take up
  // to the latency limit past the schedule's end without counting late.
  const double span = r.reqs.back().offset;
  const double offered = static_cast<double>(r.reqs.size()) / span;
  r.achieved = static_cast<double>(ok) /
               std::max(span, r.last_done - r.start - limit_s);
  const double late_tail = percentile(late, q);
  const bool backlog_grows = r.backlog_second > 2.0 * r.backlog_first + 8.0;
  r.sustained = shed == 0 && tail <= limit_s && r.achieved >= 0.95 * offered &&
                late_tail <= 0.1 * limit_s && !backlog_grows;
  std::fprintf(stderr,
               "serve rung %zu: offered %.1f/s achieved %.1f/s n=%zu "
               "p%.1f %.3f ms late %.3f ms shed %zu backlog %.1f->%.1f %s\n",
               k, offered, r.achieved, r.lat.size(), q * 100, tail * 1e3,
               late_tail * 1e3, shed, r.backlog_first, r.backlog_second,
               r.sustained ? "sustained" : "saturated");
}

}  // namespace

std::unique_ptr<ServeCore> make_serve_core(const Workload& wl,
                                           std::uint64_t seed) {
  serve::ServeOptions so;
  for (int i = 0; i < kTenants; ++i) {
    so.tenants.push_back(tenant_config(wl, seed, i));
  }
  auto core = std::make_unique<ServeCore>(std::move(so));
  core->start();
  return core;
}

void run_serve(const RunConfig& cfg, ServeCore& core, double budget_s,
               Outcome& out) {
  const Workload& wl = cfg.wl;
  const DynamicGraph stream =
      datasets::load(wl.serve.dataset, wl.serve.scale, kStreamSnapshots);
  const std::vector<VertexId> stable = always_present(stream);

  // Seeded open-loop schedule at a constant rate per rung (as wrk2
  // does): the seed picks each request's tenant and body. Rung 0 takes
  // kFixedShare of the budget at the fixed rate.
  Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + 17);
  const double fixed_s = budget_s * kFixedShare;
  const auto max_rungs = 1 + static_cast<std::size_t>(
                                 (budget_s - fixed_s) / kRungSeconds);
  std::vector<Rung> rungs(max_rungs);
  for (std::size_t k = 0; k < rungs.size(); ++k) {
    Rung& r = rungs[k];
    r.rate = k == 0 ? kFixedRps
                    : kLadderStart * kFixedRps *
                          std::pow(kLadderStep, k - 1);
    const auto count = static_cast<std::size_t>(
        std::ceil(r.rate * (k == 0 ? fixed_s : kRungSeconds)));
    for (std::size_t i = 0; i < count; ++i) {
      Planned p = plan_request(rng, stream, stable);
      p.offset = static_cast<double>(i + 1) / r.rate;
      r.reqs.push_back(std::move(p));
    }
  }

  // Priming: every tenant gets a first window and a processed state.
  std::vector<std::vector<Request>> accepted(kTenants);
  std::vector<std::vector<std::string>> live_digests(kTenants);
  for (int i = 0; i < kTenants; ++i) {
    for (const char* body : {"{\"advance\": 4}", "{}"}) {
      Planned p;
      p.tenant = i;
      p.ingest = body[1] == '"';
      p.body = body;
      Request req;
      parse(p, &req);
      const Reply rep = core.submit(req);
      out.check(rep.status == Status::kOk, "priming request failed");
      accepted[i].push_back(req);
      live_digests[i].push_back(rep.digest);
    }
  }

  double bc0 = 0;
  const double bs0 = batch_size_sum(&bc0);
  const double limit_s = kLimitMs * 1e-3;
  int saturated_in_a_row = 0;
  const double serve_end = now_s() + budget_s;
  for (std::size_t k = 0; k < rungs.size() && now_s() < serve_end; ++k) {
    drive(core, rungs[k]);
    judge(rungs[k], k, limit_s);
    saturated_in_a_row = rungs[k].sustained ? 0 : saturated_in_a_row + 1;
    if (saturated_in_a_row == kStopAfterSaturated) break;
  }
  double bc1 = 0;
  const double bs1 = batch_size_sum(&bc1);
  core.stop();

  double max_rps = 0;
  std::vector<double> late_all, parse_all, admit_all, render_all;
  std::size_t shed = 0, sent = 0;
  for (const Rung& r : rungs) {
    if (r.sustained) max_rps = r.achieved;
    for (std::size_t i = 0; i < r.recs.size(); ++i) {
      const Record& rec = r.recs[i];
      ++sent;
      late_all.push_back(rec.late);
      parse_all.push_back(rec.parse);
      admit_all.push_back(rec.admit);
      if (rec.shed) {
        ++shed;
        continue;
      }
      render_all.push_back(rec.render);
      Request req;
      parse(r.reqs[i], &req);
      accepted[r.reqs[i].tenant].push_back(std::move(req));
      live_digests[r.reqs[i].tenant].push_back(rec.digest);
    }
  }
  // Rung 0 is defined to sit below the knee: a shed there means the
  // workload cannot be served as specified.
  const std::vector<double>& lat0 = rungs[0].lat;
  out.check(std::all_of(rungs[0].recs.begin(), rungs[0].recs.end(),
                        [](const Record& rec) { return !rec.shed; }),
            "requests shed at the fixed rate");

  // ---- Output checks: every reply OK, every infer digest as expected.
  for (const Rung& r : rungs) {
    for (const Record& rec : r.recs) {
      if (!rec.shed) out.check(rec.status == Status::kOk, "reply not OK");
    }
  }
  if (cfg.corrupt == Corrupt::kServe) {
    for (std::size_t j = accepted[0].size(); j-- > 0;) {
      if (accepted[0][j].op == serve::OpKind::kInfer) {
        live_digests[0][j] += "x";
        break;
      }
    }
  }
  for (int i = 0; i < kTenants; ++i) {
    Mirror mirror(tenant_config(wl, cfg.seed, i), stream);
    bool all_match = true;
    std::string last_live, last_expected;
    for (std::size_t j = 0; j < accepted[i].size(); ++j) {
      const std::string expected = mirror.apply(accepted[i][j]);
      if (accepted[i][j].op != serve::OpKind::kInfer) continue;
      all_match = all_match && expected == live_digests[i][j];
      last_live = live_digests[i][j];
      last_expected = expected;
    }
    out.check(all_match, "tenant " + tenant_name(i) +
                             " infer digest != batch ConcurrentEngine");
    out.check(last_live == last_expected,
              "tenant " + tenant_name(i) + " final digest mismatch");
  }

  const double q0 = tail_quantile(lat0.size());
  out.check(q0 >= 0.99, "too few fixed-rate samples for p99");
  std::fprintf(stderr, "serve fixed rate %.1f/s: %zu samples, ms:",
               kFixedRps, lat0.size());
  for (double q : {0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.95, 0.99}) {
    std::fprintf(stderr, " p%g=%.3f", q * 100, percentile(lat0, q) * 1e3);
  }
  std::fprintf(stderr, "\n");
  // p99 and the sustained rate spread 0.3-0.7 between runs on a shared
  // host, beyond any end-to-end bound, so they are reported with the
  // per-layer metrics, which carry none (perfbench/README.md).
  out.e2e("serve_p50_ms", percentile(lat0, 0.5) * 1e3, "ms");
  out.layer("serve.p99_ms", percentile(lat0, 0.99) * 1e3, "ms");
  out.layer("serve.max_rps", max_rps, "1/s");

  if (!cfg.trace) return;

  // Service time per request: the accepted sequence replayed through
  // Tenant::apply on fresh tenants, none of it queued.
  std::vector<double> svc_ingest, svc_infer;
  std::vector<std::vector<double>> svc(kTenants);
  for (int i = 0; i < kTenants; ++i) {
    serve::Tenant tenant(tenant_config(wl, cfg.seed, i));
    for (std::size_t j = 0; j < accepted[i].size(); ++j) {
      const double t0 = now_s();
      const Reply rep = tenant.apply(accepted[i][j]);
      const double dt = now_s() - t0;
      svc[i].push_back(dt);
      (accepted[i][j].op == serve::OpKind::kIngest ? svc_ingest : svc_infer)
          .push_back(dt);
      if (accepted[i][j].op == serve::OpKind::kInfer) {
        out.check(rep.digest == live_digests[i][j],
                  "replayed service digest != live reply");
      }
    }
  }
  // Queue wait at the fixed rate: end-to-end minus the same request's
  // service time. Accepted requests of rung 0 follow the priming ones.
  std::vector<double> wait0;
  std::vector<std::size_t> next(kTenants, 2);
  for (std::size_t i = 0; i < rungs[0].recs.size(); ++i) {
    const Record& rec = rungs[0].recs[i];
    if (rec.shed) continue;
    const int t = rungs[0].reqs[i].tenant;
    wait0.push_back(rec.done - rec.due - svc[t][next[t]++]);
  }
  // A .p99 with fewer than 1000 samples reports the highest percentile
  // that still leaves ten samples above it.
  auto pct_ms = [](const std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    return percentile(v, std::min(q, tail_quantile(v.size()))) * 1e3;
  };
  out.layer("serve.admit_us", median(admit_all) * 1e6, "us");
  out.layer("serve.parse_us", median(parse_all) * 1e6, "us");
  out.layer("serve.render_us", median(render_all) * 1e6, "us");
  out.layer("serve.ingest_service_ms.p50", pct_ms(svc_ingest, 0.5), "ms");
  out.layer("serve.ingest_service_ms.p99", pct_ms(svc_ingest, 0.99), "ms");
  out.layer("serve.infer_service_ms.p50", pct_ms(svc_infer, 0.5), "ms");
  out.layer("serve.infer_service_ms.p99", pct_ms(svc_infer, 0.99), "ms");
  out.layer("serve.queue_wait_ms.p50", pct_ms(wait0, 0.5), "ms");
  out.layer("serve.queue_wait_ms.p99", pct_ms(wait0, 0.99), "ms");
  out.layer("serve.shed_share",
            static_cast<double>(shed) / static_cast<double>(sent), "ratio");
  out.layer("serve.gen_late_ms", pct_ms(late_all, 0.99), "ms");
  out.layer("serve.batch_size", bc1 > bc0 ? (bs1 - bs0) / (bc1 - bc0) : 0,
            "requests");
}

}  // namespace perfbench
