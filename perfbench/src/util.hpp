// Small shared pieces of the benchmark program: the host clock, medians, the
// in-memory span recorder of the traced pass, and the ordered metric list
// the program prints.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Host seconds on a monotonic clock (never simulated time).
inline double host_now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The fastest of repeated host-time readings. On a shared host, other
/// tenants only ever slow a repetition down, so the minimum is the most
/// repeatable estimate of the code's own cost; a median drifts with the
/// neighbours' load.
inline double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// One recorded span: host-time interval around a call the benchmark made
/// into the program. `parent` is the index of the enclosing span (-1 for a
/// root); `exp` names the experiment it belongs to (-1 for none).
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int exp = -1;
};

/// Spans kept in memory and written out once, when the run ends. Thread
/// safe: experiment workers of the executor record concurrently. Disabled
/// recorders (the untraced pass) ignore every call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

  /// Open a span now; returns its id (or -1 when disabled).
  int open(std::string name, int parent = -1, int exp = -1) {
    if (!enabled_) return -1;
    const double t = host_now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), t, t, parent, exp});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    if (id < 0) return;
    const double t = host_now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }
  /// Record a span whose endpoints were taken by the caller.
  int add(std::string name, double start, double end, int parent = -1, int exp = -1) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), start, end, parent, exp});
    return static_cast<int>(spans_.size() - 1);
  }

  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(SpanLog& log, std::string name, int parent = -1, int exp = -1)
      : log_(log), id_(log.open(std::move(name), parent, exp)) {}
  ~Scoped() { log_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// Metrics in print order: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

}  // namespace perfbench
