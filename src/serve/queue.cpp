#include "serve/queue.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "sim/batch_runner.hpp"

namespace liquid3d {

namespace {

/// Install a trace collector on a session: keep every n-th sample so the
/// trace lands near the requested period regardless of the sampling rate.
void attach_trace(SimulationSession& session, double period_s,
                  std::vector<SampleTrace>& out) {
  const double sample_s = session.config().sampling_interval.as_s();
  const auto every =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   std::llround(period_s / sample_s)));
  auto count = std::make_shared<std::size_t>(0);
  session.set_trace_callback([&out, every, count](const SampleTrace& s) {
    if ((*count)++ % every == 0) out.push_back(s);
  });
}

}  // namespace

QueryQueue::QueryQueue(Params params) : params_(params) {
  LIQUID3D_REQUIRE(params_.workers >= 1, "query queue needs at least 1 worker");
  LIQUID3D_REQUIRE(params_.max_batch >= 1, "max_batch must be >= 1");
  workers_.reserve(params_.workers);
  for (std::size_t i = 0; i < params_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

QueryQueue::~QueryQueue() { stop(); }

std::future<SessionOutcome> QueryQueue::submit(SessionJob job) {
  std::future<SessionOutcome> future = job.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    LIQUID3D_REQUIRE(!stopping_, "query queue is stopping");
    pending_.push_back(std::move(job));
  }
  cv_.notify_one();
  return future;
}

std::size_t QueryQueue::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

void QueryQueue::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return pending_.empty() && active_ == 0; });
}

void QueryQueue::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void QueryQueue::worker_loop() {
  // Kept across batches: a paced what-if, mostly a batch of one, solves
  // through the steady and substep factors its predecessor of the same
  // cooling built.  Keeping all four slots' factors (both coolings) held
  // two more bands and raised whatif-queue peak RSS by 2 MB for no gain in
  // its median latency (docs/performance.md).
  FactorCache factors(BatchRunner::kSliceSessions, 2);
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
    if (pending_.empty()) return;  // stopping; stop() drains before exiting

    const std::uint64_t key = pending_.front().group_key;
    std::vector<SessionJob> batch;
    batch.reserve(std::min(params_.max_batch, pending_.size()));
    for (auto it = pending_.begin();
         it != pending_.end() && batch.size() < params_.max_batch;) {
      if (it->group_key == key) {
        batch.push_back(std::move(*it));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    ++active_;
    lock.unlock();

    // Counted before the run: a caller that reads the stats right after its
    // future resolves must already see the batch that answered it.
    batches_.add();
    batched_sessions_.add(batch.size());
    max_batch_seen_.observe(batch.size());
    run_batch(batch, factors);

    lock.lock();
    --active_;
    idle_cv_.notify_all();
  }
}

void QueryQueue::run_batch(std::vector<SessionJob>& jobs, FactorCache& factors) {
  std::vector<std::vector<SampleTrace>> traces(jobs.size());
  try {
    BatchRunner runner;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      BatchRunner::OnBuild on_build;
      if (jobs[i].trace_period_s > 0.0) {
        on_build = [period = jobs[i].trace_period_s, &out = traces[i]](
                       SimulationSession& session) { attach_trace(session, period, out); };
      }
      runner.add(jobs[i].cfg, std::move(on_build));
    }
    std::vector<SimulationResult> results = runner.run(factors);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      jobs[i].promise.set_value(
          SessionOutcome{std::move(results[i]), std::move(traces[i])});
    }
  } catch (...) {
    // One bad configuration must not poison its groupmates: retry each job
    // alone, so only the genuinely failing ones surface an exception.
    for (SessionJob& job : jobs) {
      solo_fallbacks_.add();
      run_solo(job);
    }
  }
}

void QueryQueue::run_solo(SessionJob& job) {
  try {
    SimulationSession session(job.cfg);
    std::vector<SampleTrace> trace;
    if (job.trace_period_s > 0.0) {
      attach_trace(session, job.trace_period_s, trace);
    }
    SimulationResult result = session.run();
    job.promise.set_value(SessionOutcome{std::move(result), std::move(trace)});
  } catch (...) {
    job.promise.set_exception(std::current_exception());
  }
}

}  // namespace liquid3d
