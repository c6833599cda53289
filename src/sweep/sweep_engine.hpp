#pragma once

/// \file sweep_engine.hpp
/// Parameter-grid expansion and thread-pooled experiment execution.
///
/// A SweepGrid is a base ExperimentConfig plus three kinds of axes: the
/// scheme, the master seed, and any number of config knobs addressed by
/// their config_io dotted key ("catalog.itemCount", "hierarchical.
/// replication.theta", ...). expandGrid() flattens the cartesian product
/// into an indexed job list — knob axes outermost (declaration order, last
/// axis fastest), then scheme, then seed innermost, so replications of one
/// cell are adjacent.
///
/// Determinism contract: every job owns its full random state via the
/// master-seed design (no shared mutable state crosses jobs), and the
/// engine hands results to sinks in job-index order regardless of worker
/// count or completion order. A sweep at --jobs 8 is therefore
/// bit-identical to --jobs 1 everywhere except wall-clock fields.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/event.hpp"
#include "runner/experiment.hpp"
#include "runner/flat_json.hpp"

namespace dtncache::sweep {

/// One knob axis: a config_io key and the scalar values to sweep it over.
/// Values are kept as raw text ("0.9", "epidemic", "true"); jsonScalar()
/// turns each into a JSON literal when the override is applied.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

struct SweepGrid {
  runner::ExperimentConfig base;
  std::vector<runner::SchemeKind> schemes;  ///< empty → just base.scheme
  std::vector<std::uint64_t> seeds;         ///< empty → just base.seed
  std::vector<SweepAxis> axes;              ///< knob overrides, cartesian
};

/// One fully resolved run of the grid.
struct SweepJob {
  std::size_t index = 0;  ///< position in deterministic grid order
  runner::ExperimentConfig config;
  /// The knob-axis assignment that produced this job (key → raw value),
  /// carried through to the result sinks as labeling columns.
  std::vector<std::pair<std::string, std::string>> overrides;
};

/// Flatten the grid. Throws InvariantViolation on unknown keys or empty
/// axes, so a typo'd axis fails before any simulation runs.
std::vector<SweepJob> expandGrid(const SweepGrid& grid);

/// Raw axis value → JSON scalar literal (runner/flat_json.hpp).
using runner::jsonScalar;

/// FNV-1a 64 of arbitrary text — the hash behind config and sweep
/// fingerprints (work_unit.hpp).
std::uint64_t fnv1a64(const std::string& text);

/// 16-hex-digit FNV-1a of the full dumped config — the archival identity
/// of a run. Two jobs with the same fingerprint ran the same experiment.
std::string configFingerprint(const runner::ExperimentConfig& config);

/// Same identity as a raw 64-bit value (what wire frames and fragment
/// headers carry; configFingerprint is this rendered as 16 hex digits).
std::uint64_t configFingerprintU64(const runner::ExperimentConfig& config);

struct JobResult {
  SweepJob job;
  runner::ExperimentOutput output;
  double wallSeconds = 0.0;  ///< this job only, on its worker thread
};

/// Run one job the way every sweep path does: a job_start event, a timed
/// runExperiment, a job_done event, all on `job.config.tracer` when set.
/// SweepEngine and the spool worker both call this, so a fragment's trace
/// slice is byte-equal to the single-process trace.
JobResult runJob(SweepJob job);

/// Receives results strictly in job-index order (see determinism contract).
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void begin(const std::vector<SweepJob>& jobs) { (void)jobs; }
  virtual void write(const JobResult& result) = 0;
  virtual void finish() {}
};

struct SweepOptions {
  std::size_t jobs = 0;   ///< worker threads; 0 → ThreadPool::defaultWorkers()
  bool progress = false;  ///< live progress/ETA lines on stderr
  /// Structured event tracing: when set, every job runs with a private
  /// per-job tracer (run label = the job's config fingerprint) and the
  /// buffers are flushed here in job-index order — so the merged JSONL is
  /// byte-identical at any `jobs` count, like the result sinks. Null
  /// disables tracing entirely (zero hot-path cost beyond a pointer test).
  std::ostream* traceOut = nullptr;
  /// Event-kind mask applied to every job tracer (see obs::parseKindFilter).
  obs::KindMask traceFilter = obs::kAllKinds;
};

class SweepEngine {
 public:
  explicit SweepEngine(SweepOptions options = {}) : options_(options) {}

  /// Expand and run the grid; sinks stream results in job-index order.
  /// The returned vector is in the same order. A job whose simulation
  /// throws aborts the sweep with that exception (propagated from the
  /// worker via its future).
  std::vector<JobResult> run(const SweepGrid& grid,
                             const std::vector<ResultSink*>& sinks = {});

  /// Run an explicit pre-expanded job list (run() above is this after
  /// expandGrid()).
  std::vector<JobResult> runJobs(std::vector<SweepJob> jobs,
                                 const std::vector<ResultSink*>& sinks = {});

 private:
  SweepOptions options_;
};

/// Bench-facing convenience: run `configs` on `jobs` workers (0 →
/// hardware), outputs in input order. No sinks, no progress — the benches
/// format their own tables.
std::vector<runner::ExperimentOutput> runParallel(
    const std::vector<runner::ExperimentConfig>& configs, std::size_t jobs = 0);

}  // namespace dtncache::sweep
