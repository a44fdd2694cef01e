#include "sweep/supervisor.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/error.hpp"
#include "sweep/worker.hpp"

namespace liquid3d {

namespace {

using Clock = std::chrono::steady_clock;

/// File size in bytes; 0 when the file does not exist yet.
std::uint64_t file_size(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

/// The progress heartbeat: journal bytes (the worker fsyncs an append per
/// finished cell) plus the worker's JSONL metrics heartbeat next to it
/// (a chunk_start line lands before the first cell completes, so a
/// worker grinding through a slow first chunk is not misread as stalled).
std::uint64_t journal_size(const std::string& path) {
  return file_size(path) + file_size(sweep_metrics_path(path));
}

pid_t spawn(const std::vector<std::string>& argv) {
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  const pid_t supervisor = ::getpid();
  const pid_t pid = ::fork();
  LIQUID3D_REQUIRE(pid >= 0,
                   std::string("supervisor: fork failed: ") + std::strerror(errno));
  if (pid == 0) {
    // Own process group, so the stall watchdog's kill reaches everything
    // the worker spawned (a shell's children included), not just its pid.
    // Leaving the terminal's foreground group also means a Ctrl-C no longer
    // reaches the worker, so it dies with the supervisor instead.
    ::setpgid(0, 0);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != supervisor) ::_exit(127);  // the supervisor already died
    ::execvp(cargv[0], cargv.data());
    // exec failed; report distinctly from any worker exit code and avoid
    // running the parent's atexit machinery in the forked child.
    ::_exit(127);
  }
  // Also from the parent: whichever of the two runs first wins the race
  // against an early watchdog kill.
  ::setpgid(pid, pid);
  return pid;
}

enum class WorkerPhase { kPending, kRunning, kBackoff, kSucceeded, kGivenUp };

struct WorkerState {
  WorkerReport report;
  std::vector<std::string> argv;
  WorkerPhase phase = WorkerPhase::kPending;
  pid_t pid = -1;
  Clock::time_point next_start;        ///< earliest respawn (kBackoff)
  Clock::time_point last_progress;     ///< last journal growth (kRunning)
  std::uint64_t last_size = 0;
};

}  // namespace

std::chrono::milliseconds restart_backoff(const SupervisorOptions& options,
                                          std::size_t restart_index) {
  const double factor =
      std::pow(options.backoff_multiplier, static_cast<double>(restart_index));
  const double ms =
      static_cast<double>(options.initial_backoff.count()) * factor;
  const double cap = static_cast<double>(options.max_backoff.count());
  return std::chrono::milliseconds(
      static_cast<std::chrono::milliseconds::rep>(std::min(ms, cap)));
}

SupervisorResult supervise_sweep(const SupervisorOptions& options) {
  LIQUID3D_REQUIRE(!options.shard_paths.empty(), "supervisor: no shards");
  LIQUID3D_REQUIRE(options.shard_paths.size() == options.journal_paths.size(),
                   "supervisor: shard/journal arity mismatch");
  LIQUID3D_REQUIRE(options.command_override.empty() ||
                       options.command_override.size() ==
                           options.shard_paths.size(),
                   "supervisor: command_override arity mismatch");
  LIQUID3D_REQUIRE(options.backoff_multiplier >= 1.0,
                   "supervisor: backoff_multiplier must be >= 1");

  std::vector<WorkerState> workers(options.shard_paths.size());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    WorkerState& w = workers[i];
    w.report.shard_path = options.shard_paths[i];
    w.report.journal_path = options.journal_paths[i];
    if (!options.command_override.empty() &&
        !options.command_override[i].empty()) {
      w.argv = options.command_override[i];
    } else {
      LIQUID3D_REQUIRE(!options.worker_binary.empty(),
                       "supervisor: worker_binary not set");
      w.argv = {options.worker_binary, "run", "--shard",
                options.shard_paths[i], "--journal", options.journal_paths[i]};
      w.argv.insert(w.argv.end(), options.extra_args.begin(),
                    options.extra_args.end());
    }
    w.next_start = Clock::now();
  }

  auto live = [&] {
    for (const WorkerState& w : workers) {
      if (w.phase != WorkerPhase::kSucceeded &&
          w.phase != WorkerPhase::kGivenUp) {
        return true;
      }
    }
    return false;
  };

  while (live()) {
    const Clock::time_point now = Clock::now();
    for (WorkerState& w : workers) {
      if ((w.phase == WorkerPhase::kPending ||
           w.phase == WorkerPhase::kBackoff) &&
          now >= w.next_start) {
        w.pid = spawn(w.argv);
        ++w.report.spawns;
        w.phase = WorkerPhase::kRunning;
        w.last_size = journal_size(w.report.journal_path);
        w.last_progress = now;
        continue;
      }
      if (w.phase != WorkerPhase::kRunning) continue;

      int status = 0;
      const pid_t reaped = ::waitpid(w.pid, &status, WNOHANG);
      if (reaped == w.pid) {
        w.pid = -1;
        if (WIFEXITED(status)) {
          w.report.last_exit_code = WEXITSTATUS(status);
          w.report.last_signal = 0;
        } else if (WIFSIGNALED(status)) {
          w.report.last_exit_code = 0;
          w.report.last_signal = WTERMSIG(status);
        }
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
          w.phase = WorkerPhase::kSucceeded;
          w.report.succeeded = true;
        } else if (w.report.spawns > options.max_restarts) {
          w.phase = WorkerPhase::kGivenUp;
        } else {
          // Restart r is the r-th respawn (0-based): spawns counts the
          // initial launch too.
          w.phase = WorkerPhase::kBackoff;
          w.next_start = now + restart_backoff(options, w.report.spawns - 1);
        }
        continue;
      }

      // Still running: journal-progress watchdog.
      if (options.stall_timeout.count() > 0) {
        const std::uint64_t size = journal_size(w.report.journal_path);
        if (size != w.last_size) {
          w.last_size = size;
          w.last_progress = now;
        } else if (now - w.last_progress >= options.stall_timeout) {
          // Wedged by the only liveness signal we trust; the kill is safe
          // (fsync-per-record journal) and the next poll reaps + restarts.
          ::kill(-w.pid, SIGKILL);  // the whole worker process group
          ++w.report.stall_kills;
          w.last_progress = now;  // one kill per stall window
        }
      }
    }
    std::this_thread::sleep_for(options.poll_interval);
  }

  SupervisorResult result;
  result.all_succeeded = true;
  for (WorkerState& w : workers) {
    result.all_succeeded = result.all_succeeded && w.report.succeeded;
    result.workers.push_back(std::move(w.report));
  }
  return result;
}

}  // namespace liquid3d
