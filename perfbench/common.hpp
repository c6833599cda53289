#pragma once

/// \file common.hpp
/// Shared pieces of the repository benchmark: run options, the result that
/// main() prints, latency statistics, host probes, and in-memory spans.
///
/// The benchmark drives the program only through its public calls. One
/// process runs one workload; main() prints human-readable report lines and
/// then, as the last line of stdout, one JSON object with the keys
/// `correct`, `attempted`, `failed` and `metrics`.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke mode: one set-up pass and exactly one timed cycle.
  bool oneCycle = false;
  /// Directory (inside the checkout) for span dumps and scratch stores.
  std::string outDir = ".bench_build/perfbench-out";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main(). Metric names are the ones in
/// BENCHMARK.json; `notes` are extra report lines (printed, never parsed).
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;
  std::vector<std::string> warnings;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& why) {
    ++failed;
    correct = false;
    if (warnings.size() < 20) warnings.push_back("op failed: " + why);
  }
};

// ---- statistics ---------------------------------------------------------------

/// Median with linear interpolation between the middle samples.
double median(std::vector<double> values);

/// Nearest-rank percentile (p in (0, 100]).
double percentile(std::vector<double> values, double p);

/// Latency of one run's timed ops. The minimum and the quantiles are taken
/// per distinct op and averaged over the op list; the pooled p90 is 0
/// unless at least ten samples lie beyond it (100 ops).
struct LatencySummary {
  std::size_t ops = 0;
  double seconds = 0.0;
  double min = 0.0;
  double p10 = 0.0;
  double p25 = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double throughput() const { return seconds > 0.0 ? static_cast<double>(ops) / seconds : 0.0; }
};
LatencySummary summarizeLatency(const std::vector<std::vector<double>>& latencyByOp,
                                double timedSeconds);

/// The end-to-end metrics shared by every workload: setup_s (median of the
/// set-up passes), latency_ms_p50 (each distinct op's median latency,
/// averaged over the op list), throughput_per_s (ops completed per second
/// of the timed phase) and peak_rss_mb. The report line adds the op count,
/// the per-op minimum, p10 and p25, and the pooled p90.
void reportEndToEnd(RunResult& result, const std::vector<double>& setupSeconds,
                    const std::vector<std::vector<double>>& latencyByOp, double timedSeconds);

/// The traced run's op metrics, over its untraced ops: op.latency_ms_min
/// (each distinct op's fastest execution, averaged over the op list) and
/// op.latency_ms_p90.
void reportOpLayers(RunResult& result, const LatencySummary& latency);

// ---- host ---------------------------------------------------------------------

/// Interference diagnostics over one measured interval: host-wide steal
/// share and this process's CPU time over wall time. Reported only.
class HostProbe {
 public:
  HostProbe();
  /// Add the diagnostics to the notes, and as per-layer metrics when
  /// `asMetrics` (traced runs).
  void report(RunResult& result, bool asMetrics) const;

 private:
  Clock::time_point wallStart_;
  double cpuStart_ = 0.0;
  std::uint64_t jiffiesTotal_ = 0;
  std::uint64_t jiffiesSteal_ = 0;
};

/// One JSON object describing the host and build: nproc, CPU model,
/// compiler, build type, source revision (from PERFBENCH_SOURCE_REV).
std::string hostStampJson();

/// True for the build type the benchmark accepts.
bool releaseBuild();

// ---- spans --------------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans carry a name, start and
/// end (seconds since the recorder was made), the parent span and the op id.
/// Spans from the program's own timers, which report only a total, are added
/// as `synthetic` children laid out from their parent's start.
class SpanRecorder {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  SpanRecorder();

  std::size_t begin(const std::string& name, std::size_t parent, std::uint64_t opId);
  void end(std::size_t span);
  /// A completed child of `parent` with a known duration only.
  std::size_t addSynthetic(const std::string& name, std::size_t parent, double seconds);
  /// A completed span with explicit bounds (seconds on this recorder's clock).
  std::size_t addInterval(const std::string& name, std::size_t parent, std::uint64_t opId,
                          double start, double end);
  double now() const { return secondsSince(epoch_); }

  /// Write every span as one JSON line.
  void writeJsonl(const std::string& path) const;

  /// Per span name: total duration and total self time (duration minus the
  /// summed durations of its direct children, which never overlap because
  /// at most one op is in flight), both in seconds, plus the span count.
  struct SelfTime {
    double total = 0.0;
    double self = 0.0;
    std::size_t count = 0;
  };
  std::map<std::string, SelfTime> selfTimes() const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = -1.0;
    std::size_t parent = kNoParent;
    std::uint64_t opId = 0;
    bool synthetic = false;
  };
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<double> syntheticCursor_;  ///< per span: next free offset for synthetic children
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, std::size_t parent,
             std::uint64_t opId)
      : recorder_(recorder),
        id_(recorder == nullptr ? SpanRecorder::kNoParent
                                : recorder->begin(name, parent, opId)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t id_;
};

/// Add the self-time report of `spans` to the notes and write the spans to
/// `<outDir>/spans-<workload>-<seed>.jsonl`.
void reportSpans(RunResult& result, const SpanRecorder& spans, const Options& options);

// ---- workloads ----------------------------------------------------------------

/// The per-layer metric names every traced run prints (BENCHMARK.json's
/// per_layer list). Workloads that do not reach a layer report 0 for it.
const std::vector<std::pair<std::string, std::string>>& perLayerMetrics();

/// Simulator workloads (sim_workloads.cpp): infocom-schemes,
/// reality-maintenance, mobility-20k. Returns false for an unknown name.
bool isSimWorkload(const std::string& name);
RunResult runSimWorkload(const Options& options);

/// The live-daemon workload (peerd_workload.cpp).
RunResult runPeerdFleet(const Options& options);

/// 64-bit mix used to derive a workload's seeds from --seed.
std::uint64_t splitmix64(std::uint64_t x);

}  // namespace perfbench
