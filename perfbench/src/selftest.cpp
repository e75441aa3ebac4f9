// Self-tests of the benchmark's own arithmetic and plumbing. Exit code
// 0 when every case passes; each failure is printed.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "engine_bench.hpp"
#include "stats.hpp"
#include "tagnn/accelerator.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void span_self_time() {
  Tracer t;
  // root [0,10] with children [1,3] and [2,5] (overlapping each other)
  // and [9,12] (overhanging the root); grandchild [1.5,2] under [1,3].
  const int root = t.add({"root", 0, 10, -1});
  const int a = t.add({"a", 1, 3, root});
  t.add({"b", 2, 5, root});
  t.add({"c", 9, 12, root});
  t.add({"g", 1.5, 2, a});
  const auto self = t.self_seconds();
  // Children cover [1,5] and [9,10] of the root: 5 seconds.
  expect(near(self.at("root"), 5), "root self time (overlap + overhang)");
  expect(near(self.at("a"), 1.5), "child self time minus grandchild");
  expect(near(self.at("b"), 3), "leaf self time");
  expect(near(self.at("c"), 3), "overhanging leaf keeps its own span");
  // Two spans of one name add up.
  t.add({"b", 20, 21, -1});
  expect(near(t.self_seconds().at("b"), 4), "self time sums per name");
  expect(near(t.total_seconds().at("root"), 10), "total time");

  // Spans opened through the scope API nest by scope.
  Tracer s;
  {
    ScopedSpan outer(&s, "outer");
    ScopedSpan inner(&s, "inner");
  }
  expect(s.spans().size() == 2 && s.spans()[1].parent == 0 &&
             s.spans()[0].parent == -1,
         "scoped spans record their parent");
}

void percentile_rule() {
  expect(tail_quantile(999) == 0.95, "999 samples: p99 leaves 9 above");
  expect(tail_quantile(1000) == 0.99, "1000 samples: p99 leaves 10 above");
  expect(tail_quantile(10000) == 0.999, "10000 samples reach p99.9");
  expect(tail_quantile(19) == 0, "19 samples: not even the median");
  expect(tail_quantile(20) == 0.5, "20 samples: median");
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  expect(percentile(v, 0.99) == 990, "nearest-rank p99 of 1..1000");
  expect(percentile(v, 0.5) == 500, "nearest-rank p50 of 1..1000");
  expect(median({3, 1, 2, 10}) == 2.5, "even-count median");
}

struct Fingerprint {
  unsigned long long cycles = 0;
  double macs = 0;
};

Fingerprint fingerprint(std::uint64_t seed) {
  Workload wl = *find_workload("fk-tgcn");
  wl.scale = 0.02;
  const EngineInputs in = make_engine_inputs(wl, seed);
  tagnn::TagnnConfig acfg;
  acfg.window = engine_options().window_size;
  const auto r = tagnn::TagnnAccelerator(acfg).run(in.graph, in.weights);
  return {static_cast<unsigned long long>(r.cycles.total),
          r.functional.total_counts().macs};
}

void seed_plumbing() {
  const Fingerprint a = fingerprint(11), b = fingerprint(11),
                    c = fingerprint(12);
  expect(a.cycles == b.cycles && a.macs == b.macs,
         "same seed gives the same cycles and MACs");
  expect(a.cycles != c.cycles && a.macs != c.macs,
         "another seed gives other cycles and MACs");
}

}  // namespace

int main() {
  span_self_time();
  percentile_rule();
  seed_plumbing();
  std::printf("%s (%d failures)\n", g_failures == 0 ? "ok" : "FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
