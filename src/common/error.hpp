// error.hpp — error handling for liquid3d.
//
// Three exception families, by *who has to act*:
//
//   ConfigError — the caller's inputs are structurally invalid (bad
//                 floorplans, inconsistent grids, out-of-range parameters,
//                 malformed files).  Fix: correct the configuration.
//   SolverError — the inputs were valid but a numerical method failed to
//                 produce a usable solution: an iterative solve stalled at
//                 its iteration cap, a factorization/recurrence broke down,
//                 or non-finite values appeared in inputs or solutions.
//                 These are conditioning/data outcomes, not bugs and not
//                 configuration mistakes; callers may legitimately retry
//                 with a different backend, a relaxed tolerance, or a larger
//                 iteration budget (the sweep worker's quarantine ladder
//                 does exactly that).  Carries the backend name, iteration
//                 count, and final residual when known.
//   LogicError  — an internal invariant is violated (a bug in liquid3d
//                 itself).  Fix: the code.
//
// Hot inner loops use plain assert() instead — see the solvers.
#pragma once

#include <cstddef>
#include <source_location>
#include <sstream>
#include <stdexcept>
#include <string>

namespace liquid3d {

/// Raised when user-supplied configuration is invalid.
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Raised when an internal invariant is violated (a bug in liquid3d itself).
class LogicError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {
inline std::string solver_error_message(const std::string& what,
                                        const std::string& backend,
                                        std::size_t iterations,
                                        double residual) {
  std::ostringstream os;
  os << what << " [backend=" << backend << ", iterations=" << iterations
     << ", residual=" << residual << "]";
  return os.str();
}
}  // namespace detail

/// Raised when a numerical method fails: a vanishing or non-finite pivot,
/// or non-finite values in solver inputs/outputs.  Deliberately distinct
/// from ConfigError (nothing about the configuration is malformed) and
/// LogicError (nothing about the code is wrong): a SolverError is a
/// retriable per-cell outcome that fault-tolerant drivers turn into data.
class SolverError : public std::runtime_error {
 public:
  explicit SolverError(const std::string& what)
      : std::runtime_error(what) {}
  /// `backend` is the solver that failed ("direct": the banded LU);
  /// `iterations` how far it got (the LU's failing pivot index);
  /// `residual` the method's own failure measure (the pivot's magnitude).
  SolverError(const std::string& what, std::string backend,
              std::size_t iterations, double residual)
      : std::runtime_error(
            detail::solver_error_message(what, backend, iterations, residual)),
        backend_(std::move(backend)),
        iterations_(iterations),
        residual_(residual) {}

  [[nodiscard]] const std::string& backend() const { return backend_; }
  [[nodiscard]] std::size_t iterations() const { return iterations_; }
  [[nodiscard]] double residual() const { return residual_; }

 private:
  std::string backend_;
  std::size_t iterations_ = 0;
  double residual_ = 0.0;
};

namespace detail {
[[noreturn]] inline void throw_config_error(const char* expr, const std::string& msg,
                                            std::source_location loc) {
  std::ostringstream os;
  os << loc.file_name() << ':' << loc.line() << ": requirement failed (" << expr << ")";
  if (!msg.empty()) os << ": " << msg;
  throw ConfigError(os.str());
}
[[noreturn]] inline void throw_logic_error(const char* expr, const std::string& msg,
                                           std::source_location loc) {
  std::ostringstream os;
  os << loc.file_name() << ':' << loc.line() << ": invariant violated (" << expr << ")";
  if (!msg.empty()) os << ": " << msg;
  throw LogicError(os.str());
}
}  // namespace detail

/// Validate user-facing preconditions; throws ConfigError with location info.
#define LIQUID3D_REQUIRE(expr, msg)                                                       \
  do {                                                                                    \
    if (!(expr))                                                                          \
      ::liquid3d::detail::throw_config_error(#expr, (msg), std::source_location::current()); \
  } while (0)

/// Validate internal invariants; throws LogicError with location info.
#define LIQUID3D_ASSERT(expr, msg)                                                       \
  do {                                                                                   \
    if (!(expr))                                                                         \
      ::liquid3d::detail::throw_logic_error(#expr, (msg), std::source_location::current()); \
  } while (0)

}  // namespace liquid3d
