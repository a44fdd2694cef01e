// Supervisor unit tests — exercised with stub commands (/bin/true, shells)
// instead of real sweep workers, so they run in milliseconds and test only
// the supervision logic: spawn, reap, backoff, restart caps, stall kills.
#include "sweep/supervisor.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "common/error.hpp"

namespace liquid3d {
namespace {

using std::chrono::milliseconds;

SupervisorOptions stub_options(std::size_t workers) {
  SupervisorOptions o;
  for (std::size_t i = 0; i < workers; ++i) {
    o.shard_paths.push_back("shard-" + std::to_string(i));
    o.journal_paths.push_back(::testing::TempDir() +
                              "/liquid3d_supervisor_journal_" +
                              std::to_string(i) + ".csv");
    std::remove(o.journal_paths.back().c_str());
  }
  o.command_override.resize(workers);
  o.initial_backoff = milliseconds(1);
  o.max_backoff = milliseconds(8);
  o.poll_interval = milliseconds(2);
  return o;
}

TEST(RestartBackoff, GrowsExponentiallyAndCaps) {
  SupervisorOptions o;
  o.initial_backoff = milliseconds(200);
  o.backoff_multiplier = 2.0;
  o.max_backoff = milliseconds(1000);
  EXPECT_EQ(restart_backoff(o, 0), milliseconds(200));
  EXPECT_EQ(restart_backoff(o, 1), milliseconds(400));
  EXPECT_EQ(restart_backoff(o, 2), milliseconds(800));
  EXPECT_EQ(restart_backoff(o, 3), milliseconds(1000));  // capped
  EXPECT_EQ(restart_backoff(o, 30), milliseconds(1000));
}

TEST(Supervisor, RejectsMalformedOptions) {
  SupervisorOptions none;
  EXPECT_THROW((void)supervise_sweep(none), ConfigError);

  SupervisorOptions mismatch = stub_options(2);
  mismatch.journal_paths.pop_back();
  EXPECT_THROW((void)supervise_sweep(mismatch), ConfigError);
}

TEST(Supervisor, SucceedingWorkersRunExactlyOnce) {
  SupervisorOptions o = stub_options(3);
  for (auto& cmd : o.command_override) cmd = {"/bin/true"};
  const SupervisorResult result = supervise_sweep(o);
  EXPECT_TRUE(result.all_succeeded);
  ASSERT_EQ(result.workers.size(), 3u);
  for (const WorkerReport& w : result.workers) {
    EXPECT_TRUE(w.succeeded);
    EXPECT_EQ(w.spawns, 1u);
    EXPECT_EQ(w.stall_kills, 0u);
    EXPECT_EQ(w.last_exit_code, 0);
  }
}

TEST(Supervisor, CrashingWorkerIsRestartedUpToTheCap) {
  SupervisorOptions o = stub_options(1);
  o.command_override[0] = {"/bin/false"};
  o.max_restarts = 3;
  const SupervisorResult result = supervise_sweep(o);
  EXPECT_FALSE(result.all_succeeded);
  ASSERT_EQ(result.workers.size(), 1u);
  EXPECT_FALSE(result.workers[0].succeeded);
  EXPECT_EQ(result.workers[0].spawns, 4u);  // initial + 3 restarts
  EXPECT_EQ(result.workers[0].last_exit_code, 1);
}

TEST(Supervisor, CrashingWorkerEventuallySucceeding) {
  // Fails until a marker file exists, creating it on the first run: run 1
  // crashes, run 2 succeeds.  Exercises the restart-then-recover path.
  SupervisorOptions o = stub_options(1);
  const std::string marker =
      ::testing::TempDir() + "/liquid3d_supervisor_marker";
  std::remove(marker.c_str());
  o.command_override[0] = {
      "/bin/sh", "-c",
      "test -e '" + marker + "' || { : > '" + marker + "'; exit 9; }"};
  o.max_restarts = 5;
  const SupervisorResult result = supervise_sweep(o);
  EXPECT_TRUE(result.all_succeeded);
  EXPECT_EQ(result.workers[0].spawns, 2u);
  std::remove(marker.c_str());
}

TEST(Supervisor, MixedFleetReportsPerWorker) {
  SupervisorOptions o = stub_options(2);
  o.command_override[0] = {"/bin/true"};
  o.command_override[1] = {"/bin/false"};
  o.max_restarts = 1;
  const SupervisorResult result = supervise_sweep(o);
  EXPECT_FALSE(result.all_succeeded);
  EXPECT_TRUE(result.workers[0].succeeded);
  EXPECT_FALSE(result.workers[1].succeeded);
  EXPECT_EQ(result.workers[1].spawns, 2u);
}

/// True once `pid` no longer runs: it does not exist, or it is a zombie
/// waiting for its reaper.
bool process_gone(pid_t pid) {
  if (::kill(pid, 0) != 0) return errno == ESRCH;
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(stat, line);
  const std::size_t name_end = line.rfind(')');
  return name_end != std::string::npos && name_end + 2 < line.size() &&
         line[name_end + 2] == 'Z';
}

/// Waits up to 5 s for `pid` to stop running; SIGKILLs it on timeout so a
/// failing test leaves nothing behind.  Returns whether it stopped alone.
bool stops_within_5s(pid_t pid) {
  for (int i = 0; i < 500; ++i) {
    if (process_gone(pid)) return true;
    std::this_thread::sleep_for(milliseconds(10));
  }
  ::kill(pid, SIGKILL);
  return false;
}

/// The pid a stub wrote to `path` (0 until it has written one).
pid_t read_pid(const std::string& path) {
  pid_t pid = 0;
  std::ifstream(path) >> pid;
  return pid;
}

TEST(Supervisor, StallWatchdogKillsWedgedWorker) {
  // The stub never touches its journal, so the watchdog must SIGKILL it;
  // with restarts exhausted the supervisor then gives up.  The kill must
  // take the worker's whole process group: the shell's `sleep` child would
  // otherwise outlive it (and hold the test runner's output pipe open).
  SupervisorOptions o = stub_options(1);
  const std::string pid_path =
      ::testing::TempDir() + "/liquid3d_supervisor_grandchild.pid";
  std::remove(pid_path.c_str());
  o.command_override[0] = {"/bin/sh", "-c",
                           "sleep 60 & echo $! > '" + pid_path + "'; wait"};
  o.max_restarts = 0;
  o.stall_timeout = milliseconds(200);
  const SupervisorResult result = supervise_sweep(o);
  EXPECT_FALSE(result.all_succeeded);
  EXPECT_EQ(result.workers[0].spawns, 1u);
  EXPECT_GE(result.workers[0].stall_kills, 1u);
  EXPECT_EQ(result.workers[0].last_signal, SIGKILL);

  const pid_t grandchild = read_pid(pid_path);
  std::remove(pid_path.c_str());
  ASSERT_GT(grandchild, 0) << "the stub never reported its child's pid";
  EXPECT_TRUE(stops_within_5s(grandchild))
      << "the worker's child " << grandchild << " survived the stall kill";
}

TEST(Supervisor, WorkerDiesWithTheSupervisor) {
  // Workers run in their own process group, out of reach of a terminal's
  // Ctrl-C, so a supervisor killed mid-sweep must take them down itself.
  const std::string pid_path =
      ::testing::TempDir() + "/liquid3d_supervisor_worker.pid";
  std::remove(pid_path.c_str());
  const pid_t supervisor = ::fork();
  ASSERT_GE(supervisor, 0);
  if (supervisor == 0) {
    SupervisorOptions o = stub_options(1);
    o.command_override[0] = {"/bin/sh", "-c",
                             "echo $$ > '" + pid_path + "'; exec sleep 60"};
    o.max_restarts = 0;
    (void)supervise_sweep(o);
    ::_exit(0);
  }
  pid_t worker = 0;
  for (int i = 0; i < 500 && worker <= 0; ++i) {
    std::this_thread::sleep_for(milliseconds(10));
    worker = read_pid(pid_path);
  }
  ::kill(supervisor, SIGKILL);
  ::waitpid(supervisor, nullptr, 0);
  std::remove(pid_path.c_str());
  ASSERT_GT(worker, 0) << "the stub worker never reported its pid";
  EXPECT_TRUE(stops_within_5s(worker))
      << "worker " << worker << " outlived its supervisor";
}

TEST(Supervisor, JournalGrowthDefersTheWatchdog) {
  // A worker that keeps appending to its journal must never be stall-killed
  // even when the stall timeout is far shorter than its total runtime.
  SupervisorOptions o = stub_options(1);
  const std::string& journal = o.journal_paths[0];
  o.command_override[0] = {
      "/bin/sh", "-c",
      "for i in 1 2 3 4 5 6 7 8; do echo row >> '" + journal +
          "'; sleep 0.05; done"};
  o.stall_timeout = milliseconds(150);
  o.poll_interval = milliseconds(10);
  const SupervisorResult result = supervise_sweep(o);
  EXPECT_TRUE(result.all_succeeded);
  EXPECT_EQ(result.workers[0].spawns, 1u);
  EXPECT_EQ(result.workers[0].stall_kills, 0u);
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace liquid3d
