// In-memory spans recorded by the traced run around calls into each
// layer's public functions. Spans nest by scope on one thread; they are
// written out once at the end of the run.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0;  // seconds, steady clock
  double end = 0;
  int parent = -1;   // index into Tracer::spans(), -1 for a root
};

class Tracer {
 public:
  /// Opens a span under the innermost open one; returns its index.
  int open(std::string name);
  void close(int id);
  /// Adds a finished span directly (used by tests).
  int add(Span s);

  const std::vector<Span>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    stack_.clear();
  }

  /// Self time per span name: each span's duration minus the part of
  /// its interval covered by the union of its children's intervals
  /// (clipped to the parent, so overlapping or overhanging children are
  /// not subtracted twice).
  std::map<std::string, double> self_seconds() const;
  /// Total duration per span name.
  std::map<std::string, double> total_seconds() const;

  /// {"spans": [{"name", "start", "end", "parent"}, ...]}, times in
  /// seconds relative to the first span's start.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name)
      : t_(t), id_(t != nullptr ? t->open(name) : -1) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int id_;
};

}  // namespace perfbench
