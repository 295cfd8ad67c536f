#include "armbar/simbar/sweep.hpp"

#include <atomic>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "../obs/json_util.hpp"
#include "armbar/sim/error.hpp"
#include "armbar/sim/trace.hpp"
#include "armbar/util/backoff.hpp"

namespace armbar::simbar {

namespace {

void validate_jobs(const std::vector<SweepJob>& jobs) {
  for (const SweepJob& j : jobs) {
    if (j.machine == nullptr)
      throw std::invalid_argument("SweepDriver::run: job without machine");
    if (!j.factory)
      throw std::invalid_argument("SweepDriver::run: job without factory");
  }
}

/// Claim-by-counter worker pool: run_one(i) for every i < njobs, with at
/// most @p workers threads.  A single worker runs inline on the calling
/// thread (no pool, same results).
void run_pool(std::size_t njobs, int workers,
              const std::function<void(std::size_t)>& run_one) {
  const int pool = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(workers), njobs));
  if (pool <= 1) {
    for (std::size_t i = 0; i < njobs; ++i) run_one(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(pool));
  for (int w = 0; w < pool; ++w) {
    threads.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < njobs; i = next.fetch_add(1, std::memory_order_relaxed)) {
        run_one(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Rethrow the first failure by job index — deterministic regardless of
/// which worker hit it or when.
void rethrow_first(std::vector<std::exception_ptr>& errors) {
  for (std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

/// Run one isolated job attempt loop: call @p body until it succeeds, a
/// deterministic failure is seen, or @p max_attempts tries are spent.
/// Returns an engaged JobError on failure.  Deterministic failures
/// (deadlock/budget watchdog aborts, precondition violations) are not
/// retried — an identical deterministic simulation reproduces them
/// bit-for-bit — while transient ones (wall-clock "deadline" aborts,
/// allocation failure under memory pressure, anything unclassified) get
/// the bounded retry with exponential backoff + full jitter between
/// attempts.
template <typename Body>
std::optional<JobError> attempt_isolated(const SweepJob& job, std::size_t i,
                                         int max_attempts, Body&& body) {
  JobError err;
  err.job_index = i;
  err.machine_name = job.machine->name();
  err.threads = job.cfg.threads;
  for (int attempt = 1;; ++attempt) {
    err.attempts = attempt;
    try {
      body();
      return std::nullopt;
    } catch (const sim::DeadlockError& e) {
      err.kind = sim::DeadlockError::kind_name(e.kind());
      err.message = e.what();
      err.diagnostics = sim::describe(e);
      if (!sim::DeadlockError::transient(e.kind()) || attempt >= max_attempts)
        return err;
    } catch (const std::invalid_argument& e) {
      err.kind = "invalid-argument";
      err.message = e.what();
      return err;
    } catch (const std::logic_error& e) {
      err.kind = "invalid-argument";
      err.message = e.what();
      return err;
    } catch (const std::exception& e) {
      err.kind = "error";
      err.message = e.what();
      if (attempt >= max_attempts) return err;
    } catch (...) {
      err.kind = "error";
      err.message = "unknown exception";
      if (attempt >= max_attempts) return err;
    }
    util::retry_pause(i, attempt);
  }
}

}  // namespace

std::string errors_to_json(const std::vector<JobError>& errors) {
  namespace d = obs::detail;
  std::ostringstream os = d::json_stream();
  os << "[";
  bool first = true;
  for (const JobError& e : errors) {
    os << (first ? "\n" : ",\n") << "  {\"job_index\": " << e.job_index
       << ", \"machine\": \"" << d::escaped(e.machine_name)
       << "\", \"threads\": " << e.threads << ", \"kind\": \""
       << d::escaped(e.kind) << "\", \"message\": \"" << d::escaped(e.message)
       << "\", \"diagnostics\": \"" << d::escaped(e.diagnostics)
       << "\", \"attempts\": " << e.attempts << "}";
    first = false;
  }
  os << (first ? "]" : "\n]");
  return os.str();
}

SweepDriver::SweepDriver(int workers)
    : workers_(workers > 0 ? workers : default_workers()) {}

int SweepDriver::default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::vector<SimResult> SweepDriver::run(
    const std::vector<SweepJob>& jobs) const {
  validate_jobs(jobs);

  std::vector<SimResult> results(jobs.size());
  std::vector<std::exception_ptr> errors(jobs.size());
  run_pool(jobs.size(), workers_, [&](std::size_t i) {
    try {
      results[i] = measure_barrier(*jobs[i].machine, jobs[i].factory,
                                   jobs[i].cfg, jobs[i].tracer);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  rethrow_first(errors);
  return results;
}

std::vector<MeteredRun> SweepDriver::run_with_metrics(
    const std::vector<SweepJob>& jobs, std::size_t trace_capacity) const {
  validate_jobs(jobs);
  for (const SweepJob& j : jobs)
    if (j.tracer != nullptr)
      throw std::invalid_argument(
          "SweepDriver::run_with_metrics: the driver owns the tracers; "
          "jobs must not carry one (use run() for caller-owned tracers)");

  std::vector<MeteredRun> results(jobs.size());
  std::vector<std::exception_ptr> errors(jobs.size());
  run_pool(jobs.size(), workers_, [&](std::size_t i) {
    try {
      // One isolated tracer per job, alive only for the measurement: the
      // exact per-phase counters are folded into the report and the
      // (possibly capacity-0) log is discarded with the tracer.
      sim::Tracer tracer(trace_capacity);
      results[i].result = measure_barrier(*jobs[i].machine, jobs[i].factory,
                                          jobs[i].cfg, &tracer);
      results[i].report = obs::make_metrics(*jobs[i].machine, jobs[i].cfg,
                                            results[i].result, tracer);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  rethrow_first(errors);
  return results;
}

SweepOutcome SweepDriver::run_isolated(const std::vector<SweepJob>& jobs,
                                       int max_attempts) const {
  validate_jobs(jobs);
  if (max_attempts < 1)
    throw std::invalid_argument(
        "SweepDriver::run_isolated: max_attempts must be >= 1");

  SweepOutcome out;
  out.results.resize(jobs.size());
  std::vector<std::optional<JobError>> errors(jobs.size());
  run_pool(jobs.size(), workers_, [&](std::size_t i) {
    errors[i] = attempt_isolated(jobs[i], i, max_attempts, [&] {
      out.results[i] = measure_barrier(*jobs[i].machine, jobs[i].factory,
                                       jobs[i].cfg, jobs[i].tracer);
    });
    if (errors[i]) out.results[i].reset();
  });
  // Assemble the error section by scanning slots in job order after the
  // pool joins — identical for any worker count or claim interleaving.
  for (std::optional<JobError>& e : errors)
    if (e) out.errors.push_back(std::move(*e));
  return out;
}

MeteredOutcome SweepDriver::run_with_metrics_isolated(
    const std::vector<SweepJob>& jobs, std::size_t trace_capacity,
    int max_attempts) const {
  validate_jobs(jobs);
  if (max_attempts < 1)
    throw std::invalid_argument(
        "SweepDriver::run_with_metrics_isolated: max_attempts must be >= 1");
  for (const SweepJob& j : jobs)
    if (j.tracer != nullptr)
      throw std::invalid_argument(
          "SweepDriver::run_with_metrics_isolated: the driver owns the "
          "tracers; jobs must not carry one (use run_isolated() for "
          "caller-owned tracers)");

  MeteredOutcome out;
  out.results.resize(jobs.size());
  std::vector<std::optional<JobError>> errors(jobs.size());
  run_pool(jobs.size(), workers_, [&](std::size_t i) {
    errors[i] = attempt_isolated(jobs[i], i, max_attempts, [&] {
      sim::Tracer tracer(trace_capacity);
      MeteredRun run;
      run.result = measure_barrier(*jobs[i].machine, jobs[i].factory,
                                   jobs[i].cfg, &tracer);
      run.report =
          obs::make_metrics(*jobs[i].machine, jobs[i].cfg, run.result, tracer);
      out.results[i] = std::move(run);
    });
    if (errors[i]) out.results[i].reset();
  });
  for (std::optional<JobError>& e : errors)
    if (e) out.errors.push_back(std::move(*e));
  return out;
}

std::vector<SimResult> SweepDriver::run_indexed(
    std::size_t count,
    const std::function<SweepJob(std::size_t)>& make) const {
  std::vector<SweepJob> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) jobs.push_back(make(i));
  return run(jobs);
}

}  // namespace armbar::simbar
