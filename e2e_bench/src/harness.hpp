// harness.hpp — shared machinery of the end-to-end benchmark: clocks and
// process counters, in-memory spans with self time, registry deltas, and
// the report that ends every run with one JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start);
/// CPU seconds of the whole process (every thread).
[[nodiscard]] double process_cpu_s();
/// Peak resident set of the process [MB].
[[nodiscard]] double peak_rss_mb();
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Arithmetic mean; 0 for an empty sample.
[[nodiscard]] double mean(const std::vector<double>& values);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes (coarse grid, few queries) for the smoke test.
  bool smoke = false;
  /// Offset one reference answer so the output checks must count it.
  bool perturb = false;
  /// Directory the traced run writes its span dump into ("" = none).
  std::string trace_dir;
};

// -- Spans --------------------------------------------------------------------

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  const char* stage = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Aggregate of one stage's spans.
struct StageStats {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  ///< total minus the time covered by child spans
  std::vector<double> durations_s;
};

/// Completed spans, kept in memory until the run ends.  Thread-safe.
class Tracer {
 public:
  [[nodiscard]] std::uint32_t next_id();
  void record(const Span& span);
  [[nodiscard]] StageStats stage(const std::string& name) const;
  /// Every stage with its count, total and self time, as JSON lines.
  void dump(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::uint32_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// RAII span around one call into a layer; a no-op without a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* stage, std::uint32_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint32_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

// -- obs::Registry deltas ------------------------------------------------------

/// The production solver and batch instruments, read from
/// obs::Registry::global() (never reset: a run reads before/after deltas).
struct Instruments {
  double direct_solves = 0, direct_solve_s = 0;
  double factorizations = 0, factorize_s = 0;
  double assemble_s = 0;
  double batch_groups = 0, group_sessions_n = 0, group_sessions_sum = 0;
  double batch_step_s = 0;

  [[nodiscard]] static Instruments read();
  [[nodiscard]] Instruments operator-(const Instruments& before) const;
};

// -- Report --------------------------------------------------------------------

/// Names and units of the metrics BENCHMARK.json lists.
struct MetricSpec {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

class Report {
 public:
  explicit Report(const Options& opt) : opt_(opt) {}

  /// A metric of the result line (must be one of the listed names).
  void set(const std::string& name, double value);
  /// A human-readable line only (the per-workload names of docs/README).
  void note(const std::string& name, double value, const std::string& unit);
  void attempted(std::size_t n) { attempted_ += n; }
  /// One failed, rejected or wrong answer.
  void fail(const std::string& why);

  /// Print the host stamp, the notes, and the JSON result line (last).
  void print() const;

 private:
  const Options& opt_;
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Wall times [s] of running `setup` repeatedly — at least 5 times and for
/// at least one second; once with --smoke.  Workloads take one batch
/// before and one after the timed phase, so set-up samples span the run.
[[nodiscard]] std::vector<double> setup_samples(const Options& opt,
                                                const std::function<void()>& setup);

/// Bitwise equality of two doubles (NaN-safe, -0 != +0).
[[nodiscard]] bool same_bits(double a, double b);

}  // namespace e2e
