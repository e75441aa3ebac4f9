// ServeCore: multi-tenant request execution with admission control and
// dispatch on arrival. ServePlane: ServeCore mounted onto the live
// telemetry plane's HTTP server (docs/SERVING.md).
//
// Each tenant gets one worker thread and one bounded FIFO queue.
// Admission happens at submit time: a request lands in its tenant's
// queue only while the queue is below the tenant's max_queue bound;
// otherwise it is shed immediately with Status::kOverloaded (HTTP 429)
// — explicit backpressure instead of unbounded buffering, and one
// tenant's overload cannot occupy another tenant's queue or worker.
// The worker dispatches as soon as it is free: it takes whatever is
// queued (up to max_batch) and applies it in admission order, so a
// request reaching an idle worker runs at once, and requests that
// queued behind a busy worker leave together. Because a tenant's
// replies depend only on its request order, batching never changes
// response bytes — only latency (tested).
//
// End-to-end latency (admission to reply) is recorded into a core-local
// histogram (served as /slo.json) and the global metrics registry
// (tagnn.serve.latency_seconds, visible in /metrics + /snapshot.json).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/stopwatch.hpp"
#include "obs/live/live.hpp"
#include "obs/metrics.hpp"
#include "serve/tenant.hpp"

namespace tagnn::serve {

/// Latency targets evaluated by /slo.json ("ok": true while every
/// observed quantile is at or below its target).
struct SloTargets {
  double p50_ms = 50.0;
  double p90_ms = 250.0;
  double p99_ms = 1000.0;
};

struct ServeOptions {
  std::vector<TenantConfig> tenants;
  /// Max queued requests a worker takes into one dispatch.
  std::size_t max_batch = 8;
  SloTargets slo;
};

class ServeCore {
 public:
  explicit ServeCore(ServeOptions opts);
  ~ServeCore();

  ServeCore(const ServeCore&) = delete;
  ServeCore& operator=(const ServeCore&) = delete;

  /// Spawns one worker per tenant. Must be called before submit.
  void start();
  /// Rejects new work, drains queued requests with Status::kShutdown
  /// (every accepted request still gets exactly one reply), joins
  /// workers. Idempotent.
  void stop();

  using DoneFn = std::function<void(const Reply&)>;

  /// Admission: on kOk the request was queued and `done` will be called
  /// exactly once from the tenant's worker thread; on any other status
  /// (kNotFound / kOverloaded / kShutdown) the request was NOT queued
  /// and `done` is never called.
  Status try_submit(Request req, DoneFn done);

  /// Synchronous convenience: submits and blocks for the reply; shed /
  /// rejected submissions come back as an error Reply.
  Reply submit(Request req);

  std::vector<std::string> tenant_names() const;

  /// Direct tenant access for tests and in-process hosts. Not safe
  /// while workers run — use only before start() or after stop().
  Tenant* tenant(const std::string& name);

  struct TenantCounters {
    std::uint64_t accepted = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::size_t queue_depth = 0;
  };
  TenantCounters counters(const std::string& name) const;
  TenantCounters totals() const;

  /// The tagnn.slo.v1 document: observed latency quantiles vs targets,
  /// accepted/completed/shed counts, per-tenant detail. Thread-safe.
  std::string slo_json() const;
  /// The tagnn.serve.tenants.v1 document: tenant configs + progress.
  std::string tenants_json() const;

 private:
  struct Pending {
    Request req;
    DoneFn done;
    Stopwatch queued;  // admission timestamp for end-to-end latency
  };
  struct TenantHost {
    explicit TenantHost(TenantConfig cfg) : tenant(std::move(cfg)) {}
    Tenant tenant;
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> queue;
    std::uint64_t accepted = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    /// Progress mirrors readable without the tenant (slo/tenants json).
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<std::uint64_t> snapshots{0};
    std::thread worker;
  };

  void worker_loop(TenantHost& host);
  void record_latency(double ms);
  TenantHost* find(const std::string& name) const;

  const ServeOptions opts_;
  std::vector<std::unique_ptr<TenantHost>> hosts_;
  std::unordered_map<std::string, TenantHost*> by_name_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  mutable std::mutex slo_mu_;
  obs::HistogramStats latency_ms_;
};

struct ServePlaneOptions {
  ServeOptions serve;
  obs::live::LiveOptions live;
};

/// The full server: ServeCore + LivePlane wired together. Mounts
/// POST /v1/ingest?tenant=NAME, POST /v1/infer?tenant=NAME,
/// GET /v1/tenants, and GET /slo.json next to the live plane's
/// built-in /metrics, /snapshot.json, /healthz, /quit.
class ServePlane {
 public:
  explicit ServePlane(ServePlaneOptions opts);
  ~ServePlane();

  /// Starts the core, registers endpoints, and brings the HTTP server
  /// up. False + *error when the port cannot be bound.
  bool start(std::string* error = nullptr);
  void stop();

  ServeCore& core() { return core_; }
  obs::live::LivePlane& live() { return live_; }
  std::uint16_t port() const { return live_.port(); }

 private:
  obs::live::HttpResponse on_request(OpKind op,
                                     const obs::live::HttpRequest& req);

  ServeCore core_;
  obs::live::LivePlane live_;
  bool started_ = false;
};

}  // namespace tagnn::serve
