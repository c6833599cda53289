#include "sweep/sweep_engine.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <iostream>
#include <memory>
#include <utility>

#include "obs/tracer.hpp"
#include "runner/config_io.hpp"
#include "sim/assert.hpp"
#include "sweep/thread_pool.hpp"

namespace dtncache::sweep {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void printProgress(std::size_t emitted, std::size_t completed, std::size_t total,
                   double elapsed) {
  const double eta =
      completed == 0 ? 0.0
                     : elapsed / static_cast<double>(completed) *
                           static_cast<double>(total - completed);
  std::fprintf(stderr, "sweep: %zu/%zu done, %zu emitted, elapsed %.1fs, eta %.1fs\n",
               completed, total, emitted, elapsed, eta);
}

}  // namespace

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t configFingerprintU64(const runner::ExperimentConfig& config) {
  return fnv1a64(runner::dumpConfig(config));
}

std::string configFingerprint(const runner::ExperimentConfig& config) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(configFingerprintU64(config)));
  return buf;
}

std::vector<SweepJob> expandGrid(const SweepGrid& grid) {
  const std::vector<runner::SchemeKind> schemes =
      grid.schemes.empty() ? std::vector<runner::SchemeKind>{grid.base.scheme}
                           : grid.schemes;
  const std::vector<std::uint64_t> seeds =
      grid.seeds.empty() ? std::vector<std::uint64_t>{grid.base.seed} : grid.seeds;
  for (const auto& axis : grid.axes)
    DTNCACHE_CHECK_MSG(!axis.values.empty(),
                       "sweep axis '" << axis.key << "' has no values");

  std::vector<SweepJob> jobs;
  std::vector<std::size_t> odometer(grid.axes.size(), 0);
  for (;;) {
    runner::ExperimentConfig cell = grid.base;
    std::vector<std::pair<std::string, std::string>> overrides;
    overrides.reserve(grid.axes.size());
    for (std::size_t a = 0; a < grid.axes.size(); ++a) {
      const std::string& raw = grid.axes[a].values[odometer[a]];
      // Unknown keys and type mismatches fail here, before anything runs.
      runner::applyConfigJson(cell, runner::assignmentsJson({{grid.axes[a].key, raw}}));
      overrides.emplace_back(grid.axes[a].key, raw);
    }
    for (const auto scheme : schemes) {
      for (const auto seed : seeds) {
        SweepJob job;
        job.index = jobs.size();
        job.config = cell;
        job.config.scheme = scheme;
        job.config.seed = seed;
        job.overrides = overrides;
        jobs.push_back(std::move(job));
      }
    }
    // Odometer over the axes, last axis fastest.
    std::size_t a = grid.axes.size();
    while (a > 0) {
      --a;
      if (++odometer[a] < grid.axes[a].values.size()) break;
      odometer[a] = 0;
      if (a == 0) return jobs;
    }
    if (grid.axes.empty()) return jobs;
  }
}

JobResult runJob(SweepJob job) {
  DTNCACHE_EVENT(job.config.tracer, obs::EventKind::kJobStart, 0.0,
                 {"job", job.index},
                 {"scheme", runner::schemeName(job.config.scheme)},
                 {"seed", job.config.seed});
  const auto start = Clock::now();
  auto output = runner::runExperiment(job.config);
  const double wall = secondsSince(start);
  DTNCACHE_EVENT(job.config.tracer, obs::EventKind::kJobDone,
                 output.traceStats.duration, {"job", job.index});
  return JobResult{std::move(job), std::move(output), wall};
}

std::vector<JobResult> SweepEngine::run(const SweepGrid& grid,
                                        const std::vector<ResultSink*>& sinks) {
  return runJobs(expandGrid(grid), sinks);
}

std::vector<JobResult> SweepEngine::runJobs(std::vector<SweepJob> jobs,
                                            const std::vector<ResultSink*>& sinks) {
  for (ResultSink* sink : sinks) sink->begin(jobs);

  // Tracing: one thread-confined tracer per job, labeled with the job's
  // config fingerprint. Buffers are flushed in job-index order below, which
  // extends the jobs-count-independence contract to the merged trace.
  std::vector<std::unique_ptr<obs::Tracer>> tracers;
  if (options_.traceOut != nullptr) {
    tracers.reserve(jobs.size());
    for (SweepJob& job : jobs) {
      tracers.push_back(
          std::make_unique<obs::Tracer>(configFingerprint(job.config), options_.traceFilter));
      job.config.tracer = tracers.back().get();
    }
  }

  std::vector<JobResult> results;
  results.reserve(jobs.size());
  if (!jobs.empty()) {
    std::size_t workers = options_.jobs != 0 ? options_.jobs : ThreadPool::defaultWorkers();
    workers = std::min(workers, jobs.size());

    std::atomic<std::size_t> completed{0};
    const auto start = Clock::now();
    ThreadPool pool(workers);
    std::vector<std::future<JobResult>> futures;
    futures.reserve(jobs.size());
    for (SweepJob& job : jobs) {
      futures.push_back(pool.submit([job = std::move(job), &completed]() mutable {
        JobResult result = runJob(std::move(job));
        completed.fetch_add(1, std::memory_order_relaxed);
        return result;
      }));
    }

    // Aggregation: strictly job-index order, whatever order workers finish
    // in — this is what makes the output independent of the jobs count.
    for (std::size_t i = 0; i < futures.size(); ++i) {
      JobResult result = futures[i].get();
      if (options_.traceOut != nullptr) tracers[i]->flushTo(*options_.traceOut);
      for (ResultSink* sink : sinks) sink->write(result);
      results.push_back(std::move(result));
      if (options_.progress)
        printProgress(i + 1, completed.load(std::memory_order_relaxed),
                      futures.size(), secondsSince(start));
    }
  }
  if (options_.traceOut != nullptr) options_.traceOut->flush();
  for (ResultSink* sink : sinks) sink->finish();
  return results;
}

std::vector<runner::ExperimentOutput> runParallel(
    const std::vector<runner::ExperimentConfig>& configs, std::size_t jobs) {
  std::vector<SweepJob> list;
  list.reserve(configs.size());
  for (const auto& config : configs) {
    SweepJob job;
    job.index = list.size();
    job.config = config;
    list.push_back(std::move(job));
  }
  SweepEngine engine(SweepOptions{jobs, /*progress=*/false});
  auto results = engine.runJobs(std::move(list));
  std::vector<runner::ExperimentOutput> outputs;
  outputs.reserve(results.size());
  for (auto& r : results) outputs.push_back(std::move(r.output));
  return outputs;
}

}  // namespace dtncache::sweep
