// fault_injection.hpp — deterministic fault injection for chaos testing.
//
// Production code marks *fault sites* — named points where a failure can be
// provoked on demand: the journal append tearing mid-write, a sweep worker
// chunk or cell blowing up.  Sites are compiled in unconditionally but cost
// a single relaxed atomic load when nothing is armed, so the shipping
// binaries carry their own chaos harness.
//
// Arming is a spec string (env var `LIQUID3D_FAULTS` or programmatic):
//
//   site[:key=K][:nth=N][:count=M][:p=P][:seed=S][:kill][;site...]
//
//   key=K    only hits carrying key K match (e.g. worker.cell keys hits by
//            the cell's grid index — `worker.cell:key=7` fails cell 7 and
//            nothing else);
//   nth=N    matching hits before the Nth (1-based) pass; default 1;
//   count=M  at most M matching hits fail from the Nth on; default
//            unlimited (0 also means unlimited);
//   p=P      each otherwise-failing hit fails with probability P, decided
//            by a hash of (seed, site, hit index) — deterministic and
//            reproducible for a fixed seed, unlike rand();
//   seed=S   the seed for p (default 0);
//   kill     deliver SIGKILL to the process instead of reporting failure —
//            the crash-injection used to exercise supervisor restarts.
//
// Sites currently wired in:
//
//   journal.append  SweepJournal::append persists a torn prefix and throws
//   worker.chunk    run_sweep_shard fails a whole chunk (hit once per chunk)
//   worker.cell     run_sweep_shard fails one cell, keyed by grid index,
//                   on every quarantine attempt the spec keeps matching
//
// Semantics of should_fail(): every call is one *hit* of the site and
// advances that spec's matching-hit counter; the return value says whether
// the site must fail this time.  Hit counters are per armed spec and per
// process, so a restarted worker replays the same deterministic schedule.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace liquid3d::fault_injection {

namespace detail {
extern std::atomic<std::uint64_t> armed_spec_count;
[[nodiscard]] bool should_fail_slow(std::string_view site, std::uint64_t key);
}  // namespace detail

/// True when at least one spec is armed (single relaxed atomic load).
[[nodiscard]] inline bool armed() {
  return detail::armed_spec_count.load(std::memory_order_relaxed) != 0;
}

/// Record one hit of `site` (with an optional matching key) and report
/// whether the site must fail.  Disarmed fast path: one atomic load, no
/// locks, no allocation.
[[nodiscard]] inline bool should_fail(std::string_view site,
                                      std::uint64_t key = 0) {
  if (!armed()) return false;
  return detail::should_fail_slow(site, key);
}

/// Arm every `;`-separated spec in `specs` (see the file comment for the
/// grammar).  Specs accumulate — arming twice adds rules.  Throws
/// ConfigError on a malformed spec.
void arm(const std::string& specs);

/// Arm from the LIQUID3D_FAULTS environment variable (no-op when unset or
/// empty).  Process entry points (tools) call this once at startup.
void arm_from_env();

/// Remove every armed spec and reset all hit counters.
void disarm_all();

/// Hits recorded against `site` while the injector was armed (telemetry /
/// test assertions).  Disarmed hits take the fast path and are not counted.
[[nodiscard]] std::uint64_t hits(std::string_view site);

/// RAII arming for tests: arms on construction, disarms everything on
/// destruction.
class ScopedFaults {
 public:
  explicit ScopedFaults(const std::string& specs) { arm(specs); }
  ~ScopedFaults() { disarm_all(); }
  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;
};

}  // namespace liquid3d::fault_injection
