#include "serve/server.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "obs/json.hpp"
#include "obs/mem/memtrack.hpp"

namespace tagnn::serve {

namespace {

constexpr const char* kJsonType = "application/json; charset=utf-8";

std::string query_param(const std::string& query, std::string_view key) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string_view pair(query.data() + pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return std::string(pair.substr(eq + 1));
    }
    pos = amp + 1;
  }
  return {};
}

Reply error_reply(Status s, std::string tenant, std::string error) {
  Reply r;
  r.status = s;
  r.tenant = std::move(tenant);
  r.error = std::move(error);
  return r;
}

}  // namespace

ServeCore::ServeCore(ServeOptions opts) : opts_(std::move(opts)) {
  for (const TenantConfig& cfg : opts_.tenants) {
    TAGNN_CHECK(!cfg.name.empty());
    TAGNN_CHECK(by_name_.count(cfg.name) == 0);
    hosts_.push_back(std::make_unique<TenantHost>(cfg));
    by_name_[cfg.name] = hosts_.back().get();
  }
}

ServeCore::~ServeCore() { stop(); }

void ServeCore::start() {
  if (started_.load(std::memory_order_acquire)) return;
  stopping_.store(false, std::memory_order_release);
  for (auto& host : hosts_) {
    host->worker = std::thread([this, h = host.get()] { worker_loop(*h); });
  }
  started_.store(true, std::memory_order_release);
}

void ServeCore::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  for (auto& host : hosts_) {
    std::lock_guard<std::mutex> lock(host->mu);
    host->cv.notify_all();
  }
  for (auto& host : hosts_) {
    if (host->worker.joinable()) host->worker.join();
  }
  started_.store(false, std::memory_order_release);
}

ServeCore::TenantHost* ServeCore::find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

Status ServeCore::try_submit(Request req, DoneFn done) {
  TenantHost* host = find(req.tenant);
  if (host == nullptr) return Status::kNotFound;
  if (!started_.load(std::memory_order_acquire) ||
      stopping_.load(std::memory_order_acquire)) {
    return Status::kShutdown;
  }
  std::lock_guard<std::mutex> lock(host->mu);
  if (host->queue.size() >= host->tenant.config().max_queue) {
    ++host->shed;
    obs::count("tagnn.serve.shed");
    return Status::kOverloaded;
  }
  host->queue.push_back(Pending{std::move(req), std::move(done), Stopwatch{}});
  ++host->accepted;
  obs::count("tagnn.serve.accepted");
  host->cv.notify_one();
  return Status::kOk;
}

Reply ServeCore::submit(Request req) {
  const std::string tenant = req.tenant;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Reply out;
  const Status s =
      try_submit(std::move(req), [&mu, &cv, &done, &out](const Reply& r) {
        std::lock_guard<std::mutex> lock(mu);
        out = r;
        done = true;
        cv.notify_one();  // under the lock: the waiter cannot destroy
                          // mu/cv before this handler returns
      });
  switch (s) {
    case Status::kOk: break;
    case Status::kNotFound:
      return error_reply(s, tenant, "unknown tenant");
    case Status::kOverloaded:
      return error_reply(s, tenant, "tenant queue full; retry later");
    default:
      return error_reply(Status::kShutdown, tenant, "server stopping");
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&done] { return done; });
  return out;
}

void ServeCore::worker_loop(TenantHost& host) {
  std::unique_lock<std::mutex> lock(host.mu);
  for (;;) {
    host.cv.wait(lock, [this, &host] {
      return stopping_.load(std::memory_order_acquire) || !host.queue.empty();
    });
    if (stopping_.load(std::memory_order_acquire)) {
      // Drain: every admitted request still gets exactly one reply.
      while (!host.queue.empty()) {
        Pending p = std::move(host.queue.front());
        host.queue.pop_front();
        ++host.completed;
        lock.unlock();
        Reply r = error_reply(Status::kShutdown, host.tenant.name(),
                              "server stopping");
        p.done(r);
        lock.lock();
      }
      return;
    }
    // Dispatch on arrival: take whatever queued while the worker was
    // busy, up to max_batch, without waiting for more.
    std::vector<Pending> batch;
    while (!host.queue.empty() && batch.size() < opts_.max_batch) {
      batch.push_back(std::move(host.queue.front()));
      host.queue.pop_front();
    }
    lock.unlock();
    obs::record("tagnn.serve.batch_size", static_cast<double>(batch.size()));
    for (Pending& p : batch) {
      Reply r = host.tenant.apply(p.req);
      host.epoch.store(host.tenant.epoch(), std::memory_order_relaxed);
      host.snapshots.store(host.tenant.snapshots_seen(),
                           std::memory_order_relaxed);
      record_latency(p.queued.millis());
      {
        // Before done(): a submitter that just got its reply must see
        // itself counted.
        std::lock_guard<std::mutex> count_lock(host.mu);
        ++host.completed;
      }
      p.done(r);
    }
    lock.lock();
  }
}

void ServeCore::record_latency(double ms) {
  obs::record("tagnn.serve.latency_seconds", ms * 1e-3);
  std::lock_guard<std::mutex> lock(slo_mu_);
  if (latency_ms_.count == 0) {
    latency_ms_.min = ms;
    latency_ms_.max = ms;
  } else {
    latency_ms_.min = std::min(latency_ms_.min, ms);
    latency_ms_.max = std::max(latency_ms_.max, ms);
  }
  ++latency_ms_.count;
  latency_ms_.sum += ms;
  ++latency_ms_.buckets[obs::histogram_bucket(ms)];
}

std::vector<std::string> ServeCore::tenant_names() const {
  std::vector<std::string> names;
  names.reserve(hosts_.size());
  for (const auto& host : hosts_) names.push_back(host->tenant.name());
  return names;
}

Tenant* ServeCore::tenant(const std::string& name) {
  TenantHost* host = find(name);
  return host == nullptr ? nullptr : &host->tenant;
}

ServeCore::TenantCounters ServeCore::counters(const std::string& name) const {
  TenantHost* host = find(name);
  if (host == nullptr) return {};
  std::lock_guard<std::mutex> lock(host->mu);
  return {host->accepted, host->completed, host->shed, host->queue.size()};
}

ServeCore::TenantCounters ServeCore::totals() const {
  TenantCounters t;
  for (const auto& host : hosts_) {
    std::lock_guard<std::mutex> lock(host->mu);
    t.accepted += host->accepted;
    t.completed += host->completed;
    t.shed += host->shed;
    t.queue_depth += host->queue.size();
  }
  return t;
}

std::string ServeCore::slo_json() const {
  obs::HistogramStats lat;
  {
    std::lock_guard<std::mutex> lock(slo_mu_);
    lat = latency_ms_;
  }
  const TenantCounters t = totals();
  const double denom = static_cast<double>(t.accepted + t.shed);
  const bool ok = lat.count == 0 ||
                  (lat.p50() <= opts_.slo.p50_ms &&
                   lat.p90() <= opts_.slo.p90_ms &&
                   lat.p99() <= opts_.slo.p99_ms);
  std::ostringstream os;
  os << "{\"schema\": \"" << kSloSchema << "\", \"targets_ms\": {\"p50\": ";
  obs::write_json_number(os, opts_.slo.p50_ms);
  os << ", \"p90\": ";
  obs::write_json_number(os, opts_.slo.p90_ms);
  os << ", \"p99\": ";
  obs::write_json_number(os, opts_.slo.p99_ms);
  os << "}, \"observed_ms\": {\"count\": " << lat.count << ", \"p50\": ";
  obs::write_json_number(os, lat.p50());
  os << ", \"p90\": ";
  obs::write_json_number(os, lat.p90());
  os << ", \"p99\": ";
  obs::write_json_number(os, lat.p99());
  os << ", \"mean\": ";
  obs::write_json_number(os, lat.mean());
  os << ", \"max\": ";
  obs::write_json_number(os, lat.max);
  os << "}, \"requests\": {\"accepted\": " << t.accepted
     << ", \"completed\": " << t.completed << ", \"shed\": " << t.shed
     << ", \"queued\": " << t.queue_depth << "}, \"shed_rate\": ";
  obs::write_json_number(os, denom > 0 ? static_cast<double>(t.shed) / denom
                                       : 0.0);
  os << ", \"ok\": " << (ok ? "true" : "false") << ", \"tenants\": [";
  const auto mem = obs::mem::MemRegistry::global().snapshot();
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    const TenantHost& host = *hosts_[i];
    std::uint64_t accepted, completed, shed;
    std::size_t depth;
    {
      std::lock_guard<std::mutex> lock(host.mu);
      accepted = host.accepted;
      completed = host.completed;
      shed = host.shed;
      depth = host.queue.size();
    }
    const auto dom = static_cast<std::size_t>(host.tenant.mem_domain());
    const obs::mem::DomainStats mem_stats =
        dom < mem.domains.size() ? mem.domains[dom] : obs::mem::DomainStats{};
    if (i != 0) os << ", ";
    os << "{\"name\": \"" << obs::json_escape(host.tenant.name())
       << "\", \"accepted\": " << accepted << ", \"completed\": " << completed
       << ", \"shed\": " << shed << ", \"queue_depth\": " << depth
       << ", \"queue_limit\": " << host.tenant.config().max_queue
       << ", \"epoch\": " << host.epoch.load(std::memory_order_relaxed)
       << ", \"snapshots\": "
       << host.snapshots.load(std::memory_order_relaxed)
       << ", \"bytes_live\": " << mem_stats.live_bytes
       << ", \"bytes_high_water\": " << mem_stats.high_water_bytes << "}";
  }
  os << "]}\n";
  return os.str();
}

std::string ServeCore::tenants_json() const {
  std::ostringstream os;
  os << "{\"schema\": \"" << kTenantsSchema << "\", \"tenants\": [";
  const auto mem = obs::mem::MemRegistry::global().snapshot();
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    const TenantHost& host = *hosts_[i];
    const TenantConfig& cfg = host.tenant.config();
    if (i != 0) os << ", ";
    os << "{\"name\": \"" << obs::json_escape(cfg.name) << "\", \"dataset\": \""
       << obs::json_escape(cfg.dataset) << "\", \"scale\": ";
    obs::write_json_number(os, cfg.scale);
    const auto dom = static_cast<std::size_t>(host.tenant.mem_domain());
    const obs::mem::DomainStats mem_stats =
        dom < mem.domains.size() ? mem.domains[dom] : obs::mem::DomainStats{};
    os << ", \"model\": \"" << obs::json_escape(cfg.model)
       << "\", \"window\": " << cfg.engine.window_size
       << ", \"stream_snapshots\": " << cfg.stream_snapshots
       << ", \"max_queue\": " << cfg.max_queue
       << ", \"num_vertices\": " << host.tenant.stream().num_vertices()
       << ", \"epoch\": " << host.epoch.load(std::memory_order_relaxed)
       << ", \"snapshots\": "
       << host.snapshots.load(std::memory_order_relaxed)
       << ", \"bytes_live\": " << mem_stats.live_bytes
       << ", \"bytes_high_water\": " << mem_stats.high_water_bytes << "}";
  }
  os << "]}\n";
  return os.str();
}

ServePlane::ServePlane(ServePlaneOptions opts)
    : core_(std::move(opts.serve)), live_([this, &opts] {
        obs::live::LiveOptions lo = opts.live;
        // The request plane blocks inside handlers; give the HTTP
        // server enough workers that telemetry scrapes and /quit stay
        // responsive while requests are in flight.
        if (lo.http_concurrency <= 1) {
          lo.http_concurrency =
              static_cast<int>(core_.tenant_names().size()) + 2;
        }
        return lo;
      }()) {}

ServePlane::~ServePlane() { stop(); }

obs::live::HttpResponse ServePlane::on_request(
    OpKind op, const obs::live::HttpRequest& req) {
  const std::string tenant = query_param(req.query, "tenant");
  if (req.method != "POST") {
    obs::count("tagnn.serve.http_errors");
    return {405, kJsonType,
            reply_json(error_reply(Status::kBadRequest, tenant,
                                   "POST required"))};
  }
  Request r;
  r.tenant = tenant;
  r.op = op;
  if (r.tenant.empty()) {
    obs::count("tagnn.serve.http_errors");
    return {400, kJsonType,
            reply_json(error_reply(Status::kBadRequest, "",
                                   "missing ?tenant= query parameter"))};
  }
  std::string error;
  const bool parsed =
      op == OpKind::kIngest ? parse_ingest(req.body, &r.ingest, &error)
                            : parse_infer(req.body, &r.infer, &error);
  if (!parsed) {
    obs::count("tagnn.serve.http_errors");
    return {400, kJsonType,
            reply_json(error_reply(Status::kBadRequest, tenant, error))};
  }
  const Reply reply = core_.submit(std::move(r));
  if (reply.status == Status::kNotFound ||
      reply.status == Status::kBadRequest) {
    obs::count("tagnn.serve.http_errors");
  }
  return {http_status(reply.status), kJsonType, reply_json(reply)};
}

bool ServePlane::start(std::string* error) {
  if (started_) return true;
  live_.handle_request("/v1/ingest",
                       [this](const obs::live::HttpRequest& req) {
                         return on_request(OpKind::kIngest, req);
                       });
  live_.handle_request("/v1/infer",
                       [this](const obs::live::HttpRequest& req) {
                         return on_request(OpKind::kInfer, req);
                       });
  live_.handle("/v1/tenants", [this](const std::string&) {
    return obs::live::HttpResponse{200, kJsonType, core_.tenants_json()};
  });
  live_.handle("/slo.json", [this](const std::string&) {
    return obs::live::HttpResponse{200, kJsonType, core_.slo_json()};
  });
  core_.start();
  if (!live_.start(error)) {
    core_.stop();
    return false;
  }
  started_ = true;
  return true;
}

void ServePlane::stop() {
  if (!started_) return;
  live_.stop();   // joins HTTP workers: no submitter can be in flight
  core_.stop();   // then drain + join tenant workers
  started_ = false;
}

}  // namespace tagnn::serve
