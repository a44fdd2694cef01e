#pragma once
// Process-global observability: sharded-atomic counters/gauges and
// log-bucketed latency histograms with quantile readback.
//
// Design contract (see docs/observability.md):
//
//   * Counter::add is ONE relaxed fetch_add on a cache-line-padded,
//     thread-striped shard — always on.  Counters double as functional
//     statistics (ServeStats, cache hit counts), so the kill switch does
//     not gate them; their cost is already the minimum the registry
//     promises.
//   * Histogram::record, ScopedTimer's clock reads, and trace recording
//     are gated on the env/compile-time kill switch: with
//     LIQUID3D_OBS=0 (or -DLIQUID3D_OBS=OFF at configure time) they
//     reduce to a single relaxed load + branch — no clock syscalls, no
//     stores.
//   * Everything here is strictly out of band: no instrument touches
//     simulation arithmetic, so all bit-identity contracts (wire vs
//     in-process, batch vs solo, merged vs single-process) hold with
//     observability enabled or disabled.
//
// Instruments can live standalone (per-instance members, e.g. the
// ThermalService cache counters) or be registered in the process-global
// Registry for Prometheus-style text exposition.

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace liquid3d::obs {

// ---------------------------------------------------------------------------
// Kill switch.

namespace detail {
// 1 = enabled (default).  Relaxed: the flag only gates telemetry, never
// synchronizes data.
extern std::atomic<int> obs_enabled;
}  // namespace detail

inline bool enabled() {
#ifdef LIQUID3D_OBS_DISABLED
  return false;
#else
  return detail::obs_enabled.load(std::memory_order_relaxed) != 0;
#endif
}

void set_enabled(bool on);

// Reads LIQUID3D_OBS ("0"/"off"/"false" disable) and LIQUID3D_TRACE
// ("1"/"on" enable span recording).  Called once at tool startup.
void init_from_env();

// Test helper: force the switch for a scope, restore on exit.
class ScopedEnabled {
 public:
  explicit ScopedEnabled(bool on);
  ~ScopedEnabled();
  ScopedEnabled(const ScopedEnabled&) = delete;
  ScopedEnabled& operator=(const ScopedEnabled&) = delete;

 private:
  bool prev_;
};

// ---------------------------------------------------------------------------
// Counter — monotonic, sharded.

namespace detail {
inline constexpr std::size_t kShards = 16;

struct alignas(64) Shard {
  std::atomic<std::uint64_t> v{0};
};

// Stable per-thread stripe: threads round-robin over kShards slots so
// concurrent adds from different threads rarely contend on one line.
std::size_t thread_shard();
}  // namespace detail

class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) {
    shards_[detail::thread_shard()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::Shard, detail::kShards> shards_;
};

// ---------------------------------------------------------------------------
// Gauge — last-write-wins scalar (also supports add/sub).

class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// ---------------------------------------------------------------------------
// MaxTracker — running maximum with an independent resettable window.
// Backs the queue high-water-mark fix: `lifetime` is monotonic for the
// process, `window` reports the max since the last reset_window().

class MaxTracker {
 public:
  MaxTracker() = default;
  MaxTracker(const MaxTracker&) = delete;
  MaxTracker& operator=(const MaxTracker&) = delete;

  void observe(std::uint64_t v) {
    raise(lifetime_, v);
    raise(window_, v);
  }
  std::uint64_t lifetime() const {
    return lifetime_.load(std::memory_order_relaxed);
  }
  std::uint64_t window() const {
    return window_.load(std::memory_order_relaxed);
  }
  void reset_window() { window_.store(0, std::memory_order_relaxed); }

 private:
  static void raise(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (cur < v &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::atomic<std::uint64_t> lifetime_{0};
  std::atomic<std::uint64_t> window_{0};
};

// ---------------------------------------------------------------------------
// Histogram — log-bucketed over positive doubles.
//
// Buckets: 4 sub-buckets per octave (resolution factor 2^0.25 ≈ 19%),
// binary exponent clamped to [kMinExp, kMaxExp].  That spans ~9e-13
// (relative residuals) through ~1e12 (nanosecond latencies) in one fixed
// ~2.6 KB table.  Values below the range, NaN, and non-positive
// oddities clamp into bucket 0; values above the range (and +inf) land
// in the overflow bucket (the last one).

class Histogram {
 public:
  static constexpr int kSubBuckets = 4;       // per octave
  static constexpr int kMinExp = -40;         // 2^-41 ≈ 4.5e-13 lower edge
  static constexpr int kMaxExp = 40;          // 2^40 ≈ 1.1e12 upper edge
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp + 1) * kSubBuckets + 1;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  // Gated on the kill switch: disabled -> one relaxed load + branch.
  void record(double v) {
    if (!enabled()) return;
    record_always(v);
  }

  // Ungated variant for tests and for callers that already checked.
  void record_always(double v);

  std::uint64_t count() const;
  double sum() const;
  // q in [0,1]; returns the midpoint of the bucket holding the q-th
  // sample (0 if empty).
  double quantile(double q) const;

  void reset();

  // Bucket geometry, exposed for the boundary tests.
  static std::size_t bucket_index(double v);
  static double bucket_lower(std::size_t idx);
  static double bucket_upper(std::size_t idx);

  std::uint64_t bucket_count(std::size_t idx) const {
    return buckets_[idx].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// ---------------------------------------------------------------------------
// ScopedTimer — records elapsed seconds into a Histogram on destruction.
// When the kill switch is off it takes no clock reads at all.

class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h) : h_(&h), armed_(enabled()) {
    if (armed_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() { stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  // Record now instead of at scope exit (idempotent).
  void stop() {
    if (!armed_) return;
    armed_ = false;
    const auto end = std::chrono::steady_clock::now();
    h_->record_always(std::chrono::duration<double>(end - start_).count());
  }

 private:
  Histogram* h_;
  bool armed_;
  std::chrono::steady_clock::time_point start_{};
};

// ---------------------------------------------------------------------------
// Registry — named instruments + Prometheus-style text exposition.
//
// Lookup is find-or-create under a mutex; hot paths capture the returned
// reference once (instruments are never destroyed before process exit).

class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Prometheus-style text exposition.  Counters render as
  //   <name> <value>
  // histograms as _count/_sum plus p50/p90/p99 quantile gauges.
  std::string prometheus() const;

  // Test helper: zero every registered instrument (entries stay).
  void reset();

  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;
  ~Registry();

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace liquid3d::obs
