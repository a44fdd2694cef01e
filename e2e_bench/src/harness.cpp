#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <thread>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace e2e {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// -- Spans --------------------------------------------------------------------

std::uint32_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

namespace {

double span_s(const Span& s) { return 1e-9 * static_cast<double>(s.end_ns - s.start_ns); }

/// Per-span child coverage [s], keyed by parent id.
std::unordered_map<std::uint32_t, double> child_time(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, double> covered;
  for (const Span& s : spans) {
    if (s.parent != 0) covered[s.parent] += span_s(s);
  }
  return covered;
}

}  // namespace

StageStats Tracer::stage(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto covered = child_time(spans_);
  StageStats out;
  for (const Span& s : spans_) {
    if (name != s.stage) continue;
    const double d = span_s(s);
    ++out.count;
    out.total_s += d;
    const auto it = covered.find(s.id);
    out.self_s += d - (it == covered.end() ? 0.0 : it->second);
    out.durations_s.push_back(d);
  }
  return out;
}

void Tracer::dump(const std::string& path) const {
  std::set<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) names.insert(s.stage);
  }
  std::ofstream out(path);
  for (const std::string& name : names) {
    const StageStats st = stage(name);
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"stage\": \"%s\", \"count\": %zu, \"total_s\": %.9g, "
                  "\"self_s\": %.9g, \"p50_s\": %.9g}\n",
                  name.c_str(), st.count, st.total_s, st.self_s,
                  median(st.durations_s));
    out << line;
  }
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* stage, std::uint32_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->next_id();
  span_.parent = parent;
  span_.stage = stage;
  span_.start_ns = liquid3d::obs::now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = liquid3d::obs::now_ns();
  tracer_->record(span_);
}

// -- Registry deltas ------------------------------------------------------------

Instruments Instruments::read() {
  auto& reg = liquid3d::obs::Registry::global();
  Instruments in;
  const auto& solve = reg.histogram("liquid3d_solver_direct_solve_seconds");
  const auto& factor = reg.histogram("liquid3d_solver_factorize_seconds");
  const auto& assemble = reg.histogram("liquid3d_solver_assemble_seconds");
  const auto& sessions = reg.histogram("liquid3d_batch_group_sessions");
  in.direct_solves = static_cast<double>(solve.count());
  in.direct_solve_s = solve.sum();
  in.factorizations = static_cast<double>(factor.count());
  in.factorize_s = factor.sum();
  in.assemble_s = assemble.sum();
  in.batch_groups =
      static_cast<double>(reg.counter("liquid3d_batch_groups_total").value());
  in.group_sessions_n = static_cast<double>(sessions.count());
  in.group_sessions_sum = sessions.sum();
  in.batch_step_s = reg.histogram("liquid3d_batch_step_seconds").sum();
  return in;
}

Instruments Instruments::operator-(const Instruments& b) const {
  Instruments d;
  d.direct_solves = direct_solves - b.direct_solves;
  d.direct_solve_s = direct_solve_s - b.direct_solve_s;
  d.factorizations = factorizations - b.factorizations;
  d.factorize_s = factorize_s - b.factorize_s;
  d.assemble_s = assemble_s - b.assemble_s;
  d.batch_groups = batch_groups - b.batch_groups;
  d.group_sessions_n = group_sessions_n - b.group_sessions_n;
  d.group_sessions_sum = group_sessions_sum - b.group_sessions_sum;
  d.batch_step_s = batch_step_s - b.batch_step_s;
  return d;
}

// -- Report --------------------------------------------------------------------

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"latency_p50_ms", "ms"},
      {"ops_per_s", "1/s"},
      {"cpu_ms_per_op", "ms"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"solver.direct_solves", "count"},
      {"solver.direct_solve_s", "s"},
      {"solver.solves_per_substep", "ratio"},
      {"solver.factorizations", "count"},
      {"solver.factorize_s", "s"},
      {"solver.assemble_s", "s"},
      {"thermal.step_us_p50", "us"},
      {"thermal.step_s", "s"},
      {"thermal.steady_ms_p50", "ms"},
      {"sim.begin_tick_s", "s"},
      {"sim.finish_tick_s", "s"},
      {"sim.init_s", "s"},
      {"sim.unattributed_s", "s"},
      {"characterization.flow_lut_s", "s"},
      {"characterization.talb_s", "s"},
      {"batch.groups", "count"},
      {"batch.group_sessions_mean", "count"},
      {"batch.step_s", "s"},
      {"queue.batches", "count"},
      {"queue.batch_size_mean", "count"},
      {"queue.solo_fallbacks", "count"},
      {"queue.wait_ms_p50", "ms"},
      {"serve.rom_hit_ratio", "ratio"},
      {"serve.rom_builds", "count"},
      {"serve.rom_fallbacks", "count"},
      {"serve.full_solves", "count"},
      {"serve.model_evictions", "count"},
      {"serve.key_us_p50", "us"},
      {"rom.evaluate_us_p50", "us"},
      {"rom.build_ms", "ms"},
      {"serve.steady_p99_us", "us"},
      {"net.wire_steady_p99_us", "us"},
      {"net.encode_request_us_p50", "us"},
      {"net.decode_request_us_p50", "us"},
      {"net.encode_response_us_p50", "us"},
      {"net.decode_response_us_p50", "us"},
      {"net.dispatch_us_p50", "us"},
      {"net.transport_us_p50", "us"},
      {"net.rejected", "count"},
      {"loadgen.late_ms_max", "ms"},
      {"obs.trace_overhead", "ratio"},
  };
  return kMetrics;
}

void Report::set(const std::string& name, double value) { values_[name] = value; }

void Report::note(const std::string& name, double value, const std::string& unit) {
  char line[160];
  std::snprintf(line, sizeof line, "%-30s %.6g %s", name.c_str(), value, unit.c_str());
  notes_.emplace_back(line);
}

void Report::fail(const std::string& why) {
  ++failed_;
  if (failed_ <= 20) std::fprintf(stderr, "e2e_bench: check failed: %s\n", why.c_str());
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        std::replace(model.begin(), model.end(), '"', '\'');
        return model;
      }
    }
  }
  return "unknown";
}

bool obs_compiled_in() {
#ifdef LIQUID3D_OBS_DISABLED
  return false;
#else
  return true;
#endif
}

}  // namespace

void Report::print() const {
  std::printf(
      "# host {\"nproc\": %u, \"cpu\": \"%s\", \"build_type\": \"%s\", "
      "\"march_native\": %s, \"obs_compiled\": %s, \"obs_enabled\": %s, "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), cpu_model().c_str(), E2E_BUILD_TYPE,
      E2E_NATIVE_ARCH ? "true" : "false", obs_compiled_in() ? "true" : "false",
      liquid3d::obs::enabled() ? "true" : "false", opt_.workload.c_str(),
      static_cast<unsigned long long>(opt_.seed), opt_.seconds, opt_.trace ? 1 : 0);
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  const double error_rate =
      attempted_ == 0 ? 1.0 : static_cast<double>(failed_) / static_cast<double>(attempted_);
  std::printf("# %-30s %.6g ratio (%zu of %zu)\n", "error_rate", error_rate, failed_,
              attempted_);

  const auto& specs = opt_.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics;
  std::size_t failed = failed_;
  for (const MetricSpec& m : specs) {
    const auto it = values_.find(m.name);
    double v = it == values_.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      ++failed;
      v = 0.0;
    }
    char item[192];
    std::snprintf(item, sizeof item, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, v, m.unit);
    metrics += item;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              failed == 0 && attempted_ > 0 ? "true" : "false",
              std::max<std::size_t>(attempted_, 1), failed, metrics.c_str());
  std::fflush(stdout);
}

std::vector<double> setup_samples(const Options& opt, const std::function<void()>& setup) {
  constexpr std::size_t kMinReps = 5;
  constexpr std::size_t kMaxReps = 200;
  constexpr double kMinSeconds = 1.0;
  std::vector<double> reps;
  double total = 0.0;
  while (reps.empty() ||
         (!opt.smoke && reps.size() < kMaxReps && (reps.size() < kMinReps || total < kMinSeconds))) {
    const auto start = Clock::now();
    setup();
    reps.push_back(seconds_since(start));
    total += reps.back();
  }
  return reps;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace e2e
