/// \file sim_workloads.cpp
/// The three simulator workloads. Each is a closed loop with one client and
/// one op in flight: the next op starts only after the previous one
/// returned. Every run executes the same fixed op list (one op per seed
/// derived from --seed) as whole cycles. infocom-schemes and
/// reality-maintenance keep the program's default threading; mobility-20k
/// pins the plain kernel for its timed ops (see mobility20kConfig).
/// BENCHMARK.json runs infocom-schemes; the other two are run by hand, as
/// their op time follows host contention by more than a gate allows
/// (README.md, "Host noise").
///
/// A run has three phases:
///   1. set-up: the trace memo is emptied and every distinct op runs once,
///      cold; each pass is timed as one `setup_s` sample and kept out of the
///      latency samples. The first execution of each op fixes its digest.
///   2. timed: whole cycles of the op list until --seconds have passed.
///   3. traced runs only: span-recorded cycles, one op with the program's
///      tracer, op 0 on two shard workers, and the layer functions.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "cache/centrality.hpp"
#include "common.hpp"
#include "net/network.hpp"
#include "runner/experiment.hpp"
#include "sim/simulator.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/sweep_engine.hpp"
#include "trace/estimator.hpp"
#include "trace/generators.hpp"
#include "trace/trace_cache.hpp"

namespace perfbench {
namespace {

using namespace dtncache;

// ---- pinned workload configs ----------------------------------------------------
//
// Every field that defines a workload is set here, not taken from the
// bench presets (bench/common.hpp), which may be recalibrated. Each run
// prints the configs' fingerprints so drift in program defaults shows.

runner::ExperimentConfig infocomSchemesConfig(std::uint64_t seed) {
  runner::ExperimentConfig c;
  c.trace.nodeCount = 78;
  c.trace.duration = sim::days(4);
  c.trace.model = trace::RateModel::kCommunity;
  c.trace.meanContactsPerPairPerDay = 4.0;
  c.trace.paretoShape = 2.0;
  c.trace.rateSpread = 50.0;
  c.trace.communities = 4;
  c.trace.intraCommunityBoost = 3.0;
  c.trace.diurnal = true;
  c.trace.nightActivity = 0.05;
  c.trace.meanContactDuration = 180.0;
  c.trace.seed = seed;
  c.catalog.itemCount = 10;
  c.catalog.itemSizeBytes = 10 * 1024;
  c.catalog.refreshPeriod = sim::hours(6);  // τ
  c.catalog.lifetimeFactor = 2.0;
  c.catalog.staggerBirths = true;
  c.workload.queriesPerNodePerDay = 2.0;
  c.workload.zipfExponent = 0.8;
  c.workload.queryDeadline = sim::hours(3);
  c.workload.seed = 7;
  c.cache.cachingNodesPerItem = 8;
  c.cache.centralityWindow = sim::hours(24);
  c.cache.sampleInterval = sim::hours(1);
  c.estimator.mode = trace::EstimatorMode::kCumulative;
  c.estimator.priorRate = 0.0;
  c.estimator.backend = trace::PairBackend::kAuto;
  c.estimatorWarmup = sim::days(7);
  c.hierarchical.maintenancePeriod = sim::hours(12);
  c.scheme = runner::SchemeKind::kHierarchical;
  c.shards = 0;  // program default: auto, one kernel thread below 16384 nodes
  c.seed = seed;
  return c;
}

runner::ExperimentConfig realityMaintenanceConfig(std::uint64_t seed) {
  runner::ExperimentConfig c;
  c.trace.nodeCount = 97;
  c.trace.duration = sim::days(30);
  c.trace.model = trace::RateModel::kCommunity;
  c.trace.meanContactsPerPairPerDay = 0.10;
  c.trace.paretoShape = 1.5;
  c.trace.rateSpread = 300.0;
  c.trace.communities = 8;
  c.trace.intraCommunityBoost = 10.0;
  c.trace.diurnal = true;
  c.trace.nightActivity = 0.10;
  c.trace.meanContactDuration = 300.0;
  c.trace.seed = seed;
  c.catalog.itemCount = 30;
  c.catalog.itemSizeBytes = 10 * 1024;
  c.catalog.refreshPeriod = sim::days(2);
  c.catalog.lifetimeFactor = 2.0;
  c.catalog.staggerBirths = true;
  c.workload.queriesPerNodePerDay = 1.0;
  c.workload.zipfExponent = 0.8;
  c.workload.queryDeadline = sim::days(1);
  c.workload.seed = 7;
  c.cache.cachingNodesPerItem = 8;
  c.cache.centralityWindow = sim::hours(24);
  c.cache.sampleInterval = sim::hours(1);
  c.estimator.mode = trace::EstimatorMode::kSlidingWindow;
  c.estimator.window = sim::days(7);
  c.estimator.priorRate = 0.0;
  c.estimator.backend = trace::PairBackend::kAuto;
  c.estimatorWarmup = sim::days(7);
  c.hierarchical.maintenancePeriod = sim::hours(3);
  c.scheme = runner::SchemeKind::kHierarchical;
  c.shards = 0;
  c.seed = seed;
  return c;
}

runner::ExperimentConfig mobility20kConfig(std::uint64_t seed) {
  runner::ExperimentConfig c;
  c.trace.nodeCount = 20000;
  c.trace.duration = sim::days(2);
  c.trace.model = trace::RateModel::kMobilityCommunity;
  c.trace.meanContactsPerPairPerDay = 0.10;
  c.trace.paretoShape = 1.5;
  c.trace.rateSpread = 300.0;
  c.trace.communities = 20000 / 64;
  c.trace.interCommunityFraction = 0.05;
  c.trace.meanDegree = 40.0;
  c.trace.diurnal = false;
  c.trace.meanContactDuration = 300.0;
  c.trace.seed = seed;
  c.catalog.itemCount = 10;
  c.catalog.itemSizeBytes = 10 * 1024;
  c.catalog.refreshPeriod = sim::hours(12);
  c.catalog.lifetimeFactor = 2.0;
  c.catalog.staggerBirths = true;
  c.workload.queriesPerNodePerDay = 0.2;
  c.workload.zipfExponent = 0.8;
  c.workload.queryDeadline = sim::hours(12);
  c.workload.seed = 7;
  c.cache.cachingNodesPerItem = 8;
  c.cache.centralityWindow = sim::hours(24);
  c.cache.sampleInterval = sim::hours(1);
  c.estimator.mode = trace::EstimatorMode::kCumulative;
  c.estimator.priorRate = 0.0;
  c.estimator.backend = trace::PairBackend::kAuto;
  c.estimatorWarmup = sim::days(2);
  c.hierarchical.maintenancePeriod = sim::hours(12);
  c.scheme = runner::SchemeKind::kHierarchical;
  // Timed ops run the plain kernel: the auto rule's 2-worker kernel waits
  // at barriers for any descheduled worker, which turns host steal into op
  // time (p10 385 -> 769 ms as steal went 1.4% -> 11.9%). Traced runs still
  // run op 0 on two workers for the shard metrics.
  c.shards = 1;
  c.seed = seed;
  return c;
}

struct SimWorkload {
  const char* name;
  /// true: an op is one SweepEngine::run of all seven schemes on one seed
  /// (the paired comparison cell); false: one Hierarchical runExperiment.
  bool cell;
  std::size_t seedCount;  ///< distinct ops per cycle (<= 8: the memo holds 16 traces)
  runner::ExperimentConfig (*config)(std::uint64_t seed);
};

const SimWorkload kWorkloads[] = {
    {"infocom-schemes", true, 4, infocomSchemesConfig},
    {"reality-maintenance", false, 4, realityMaintenanceConfig},
    {"mobility-20k", false, 2, mobility20kConfig},
};

/// Cold passes over the op list, each timed as one setup_s sample.
constexpr std::size_t kSetupPasses = 5;

/// Kernel workers of the traced run's sharded op.
constexpr std::size_t kShardWorkers = 2;

const SimWorkload* findWorkload(const std::string& name) {
  for (const SimWorkload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::vector<std::uint64_t> deriveSeeds(const SimWorkload& w, std::uint64_t seed) {
  std::vector<std::uint64_t> seeds;
  std::uint64_t state = splitmix64(seed ^ sweep::fnv1a64(w.name));
  while (seeds.size() < w.seedCount) {
    state = splitmix64(state);
    const std::uint64_t s = 1 + state % 1000000;
    if (std::find(seeds.begin(), seeds.end(), s) == seeds.end()) seeds.push_back(s);
  }
  return seeds;
}

// ---- layer accounting ---------------------------------------------------------------

double timerSeconds(const runner::ExperimentOutput& out, const std::string& name) {
  for (const auto& t : out.timers)
    if (t.name == name) return t.seconds;
  return 0.0;
}

/// Per-layer totals over the span-recorded ops of a traced run.
struct LayerTotals {
  std::size_t ops = 0;
  std::size_t experiments = 0;
  std::map<std::string, double> counters;
  double experimentS = 0.0;
  double startS = 0.0;
  double runS = 0.0;
  double maintenanceS = 0.0;
  std::map<std::string, std::pair<double, std::size_t>> perScheme;
  double events = 0.0;
  double peakPending = 0.0;
  double shards = 0.0;
  double shardContacts = 0.0;
  double boring = 0.0;
  double stolen = 0.0;
  double barrierWaits = 0.0;
  double predictedSum = 0.0;
  std::size_t predictedCount = 0;
  double sweepRunS = 0.0;
  double sinkS = 0.0;
  double sinkBytes = 0.0;

  void addExperiment(const runner::ExperimentOutput& out, double wallS,
                     runner::SchemeKind scheme) {
    ++experiments;
    for (const auto& [name, value] : out.counters) counters[name] += static_cast<double>(value);
    experimentS += wallS;
    startS += timerSeconds(out, "runner.start");
    runS += timerSeconds(out, "runner.run");
    maintenanceS += timerSeconds(out, "core.maintenance");
    auto& s = perScheme[runner::schemeName(scheme)];
    s.first += wallS;
    ++s.second;
    events += static_cast<double>(out.eventsProcessed);
    peakPending = std::max(peakPending, static_cast<double>(out.peakPendingEvents));
    shards = std::max(shards, static_cast<double>(out.shardStats.shards));
    shardContacts += static_cast<double>(out.shardStats.contactsProcessed);
    boring += static_cast<double>(out.shardStats.boringContacts + out.shardStats.stolenContacts);
    stolen += static_cast<double>(out.shardStats.stolenContacts);
    barrierWaits += static_cast<double>(out.shardStats.barrierWaits);
    if (scheme == runner::SchemeKind::kHierarchical) {
      predictedSum += out.meanPredictedProbability;
      ++predictedCount;
    }
  }
};

double ratioOf(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Forwards to a result sink and times every call (sweep.sink_ms); in
/// traced ops also records each write as a span under the sweep span.
class TimedSink : public sweep::ResultSink {
 public:
  TimedSink(sweep::ResultSink& inner, const std::ostringstream& stream, SpanRecorder* spans,
            std::size_t parent, std::uint64_t opId)
      : inner_(inner), stream_(stream), spans_(spans), parent_(parent), opId_(opId) {}

  void begin(const std::vector<sweep::SweepJob>& jobs) override {
    timed([&] { inner_.begin(jobs); });
  }
  void write(const sweep::JobResult& result) override {
    timed([&] { inner_.write(result); });
  }
  void finish() override {
    timed([&] { inner_.finish(); });
  }
  double seconds() const { return seconds_; }
  std::size_t bytes() const { return stream_.view().size(); }

 private:
  template <typename F>
  void timed(F&& f) {
    const double t0 = spans_ != nullptr ? spans_->now() : 0.0;
    const auto start = Clock::now();
    f();
    seconds_ += secondsSince(start);
    if (spans_ != nullptr) spans_->addInterval("sweep.sink", parent_, opId_, t0, spans_->now());
  }

  sweep::ResultSink& inner_;
  const std::ostringstream& stream_;
  SpanRecorder* spans_;
  std::size_t parent_;
  std::uint64_t opId_;
  double seconds_ = 0.0;
};

// ---- ops ------------------------------------------------------------------------------

struct OpOutcome {
  std::uint64_t digest = 0;        ///< the op's output: a cell's JSONL + CSV bytes
  std::uint64_t resultDigest = 0;  ///< results and counters only, the same at any shard count
  std::string error;  ///< empty when every check passed
  std::uint64_t tracerEvents = 0;
};

std::string fractionError(const metrics::RunResults& r, const char* who) {
  const auto inUnit = [](double v) { return std::isfinite(v) && v >= 0.0 && v <= 1.0; };
  if (!inUnit(r.meanFreshFraction) || !inUnit(r.finalFreshFraction) ||
      !inUnit(r.meanValidFraction)) {
    std::ostringstream msg;
    msg << who << ": fresh/valid fraction outside [0, 1] (mean fresh " << r.meanFreshFraction
        << ", final fresh " << r.finalFreshFraction << ", valid " << r.meanValidFraction << ")";
    return msg.str();
  }
  return {};
}

/// Everything a single run reports that must repeat exactly, as text.
std::string experimentDigestText(const runner::ExperimentOutput& out) {
  std::string text = out.scheme;
  char buf[96];
  const auto addDouble = [&](const char* key, double v) {
    std::snprintf(buf, sizeof buf, "|%s=%a", key, v);
    text += buf;
  };
  addDouble("mean_fresh", out.results.meanFreshFraction);
  addDouble("final_fresh", out.results.finalFreshFraction);
  addDouble("mean_valid", out.results.meanValidFraction);
  addDouble("within_tau", out.results.refreshWithinPeriodRatio);
  addDouble("predicted_p", out.meanPredictedProbability);
  std::snprintf(buf, sizeof buf, "|pushes=%zu|events=%" PRIu64 "|peak=%zu",
                out.results.refreshPushes, out.eventsProcessed, out.peakPendingEvents);
  text += buf;
  for (const auto& [name, value] : out.counters) text += "|" + name + "=" + std::to_string(value);
  return text;
}

/// Attach the program's own timers as children of an experiment span.
void addTimerSpans(SpanRecorder& spans, std::size_t experimentSpan,
                   const runner::ExperimentOutput& out) {
  spans.addSynthetic("runner.start", experimentSpan, timerSeconds(out, "runner.start"));
  const std::size_t run =
      spans.addSynthetic("runner.run", experimentSpan, timerSeconds(out, "runner.run"));
  spans.addSynthetic("core.maintenance", run, timerSeconds(out, "core.maintenance"));
}

/// One comparison cell: all seven schemes on one seed through the sweep
/// engine (one worker), rendered by both result sinks into memory.
OpOutcome runCell(const runner::ExperimentConfig& base, std::uint64_t opId, SpanRecorder* spans,
                  std::size_t opSpan, LayerTotals* totals, bool withTracer) {
  OpOutcome outcome;
  sweep::SweepGrid grid;
  grid.base = base;
  grid.schemes = runner::allSchemes();

  std::ostringstream jsonl;
  std::ostringstream csv;
  std::ostringstream traceOut;
  sweep::JsonlSink jsonlSink(jsonl, /*wallClock=*/false);
  sweep::CsvSink csvSink(csv, /*wallClock=*/false);
  sweep::SweepOptions options;
  options.jobs = 1;
  if (withTracer) options.traceOut = &traceOut;

  const std::size_t sweepSpan =
      spans != nullptr ? spans->begin("sweep.run", opSpan, opId) : SpanRecorder::kNoParent;
  TimedSink timedJsonl(jsonlSink, jsonl, spans, sweepSpan, opId);
  TimedSink timedCsv(csvSink, csv, spans, sweepSpan, opId);
  const auto start = Clock::now();
  const std::vector<sweep::JobResult> results =
      sweep::SweepEngine(options).run(grid, {&timedJsonl, &timedCsv});
  const double sweepS = secondsSince(start);
  if (spans != nullptr) spans->end(sweepSpan);

  double fresh[3] = {-1.0, -1.0, -1.0};  // NoRefresh, Hierarchical, Flooding
  std::string resultsText;
  for (const sweep::JobResult& r : results) {
    const runner::SchemeKind kind = r.job.config.scheme;
    resultsText += experimentDigestText(r.output) + "\n";
    if (outcome.error.empty()) outcome.error = fractionError(r.output.results, r.output.scheme.c_str());
    const double f = r.output.results.meanFreshFraction;
    if (kind == runner::SchemeKind::kNoRefresh) fresh[0] = f;
    if (kind == runner::SchemeKind::kHierarchical) fresh[1] = f;
    if (kind == runner::SchemeKind::kFlooding) fresh[2] = f;
    if (totals != nullptr) totals->addExperiment(r.output, r.wallSeconds, kind);
    if (spans != nullptr) {
      const std::size_t exp = spans->addSynthetic("runner.experiment", sweepSpan, r.wallSeconds);
      addTimerSpans(*spans, exp, r.output);
    }
  }
  if (outcome.error.empty() && !(fresh[0] < fresh[1] && fresh[1] < fresh[2])) {
    std::ostringstream msg;
    msg << "F2 ordering NoRefresh < Hierarchical < Flooding broken on mean fresh fraction ("
        << fresh[0] << ", " << fresh[1] << ", " << fresh[2] << ")";
    outcome.error = msg.str();
  }
  if (totals != nullptr) {
    totals->sweepRunS += sweepS;
    totals->sinkS += timedJsonl.seconds() + timedCsv.seconds();
    totals->sinkBytes += static_cast<double>(timedJsonl.bytes() + timedCsv.bytes());
  }
  if (withTracer) {
    const std::string text = traceOut.str();
    outcome.tracerEvents = static_cast<std::uint64_t>(std::count(text.begin(), text.end(), '\n'));
  }
  // The sinks echo the config, shard count included, so a sharded
  // execution is held to the results digest only.
  outcome.digest = sweep::fnv1a64(jsonl.str() + csv.str());
  outcome.resultDigest = sweep::fnv1a64(resultsText);
  return outcome;
}

OpOutcome runSingle(const runner::ExperimentConfig& config, std::uint64_t opId,
                    SpanRecorder* spans, std::size_t opSpan, LayerTotals* totals,
                    bool withTracer) {
  OpOutcome outcome;
  runner::ExperimentConfig cfg = config;
  obs::Tracer tracer("perfbench");
  if (withTracer) cfg.tracer = &tracer;
  const std::size_t expSpan = spans != nullptr ? spans->begin("runner.experiment", opSpan, opId)
                                               : SpanRecorder::kNoParent;
  const auto start = Clock::now();
  const runner::ExperimentOutput out = runner::runExperiment(cfg);
  const double wallS = secondsSince(start);
  if (spans != nullptr) {
    spans->end(expSpan);
    addTimerSpans(*spans, expSpan, out);
  }
  if (totals != nullptr) totals->addExperiment(out, wallS, cfg.scheme);
  outcome.error = fractionError(out.results, out.scheme.c_str());
  outcome.tracerEvents = tracer.eventCount();
  outcome.digest = sweep::fnv1a64(experimentDigestText(out));
  outcome.resultDigest = outcome.digest;
  return outcome;
}

// ---- the closed loop -------------------------------------------------------------------

/// How one execution of an op is observed.
struct Observe {
  SpanRecorder* spans = nullptr;    ///< record spans (traced cycles)
  LayerTotals* totals = nullptr;    ///< accumulate layer counters
  bool withTracer = false;          ///< install the program's obs::Tracer
  std::uint64_t* tracerEvents = nullptr;
  std::size_t shards = 0;           ///< nonzero: run with this many kernel workers
};

/// One run's fixed op list, executed one op at a time with its checks.
class ClosedLoop {
 public:
  ClosedLoop(const SimWorkload& workload, std::uint64_t seed) : workload_(workload) {
    for (std::uint64_t s : deriveSeeds(workload, seed))
      configs_.push_back(workload.config(s));
    digests_.assign(configs_.size(), {0, 0});
    haveDigest_.assign(configs_.size(), false);
  }

  std::size_t opCount() const { return configs_.size(); }
  const runner::ExperimentConfig& config(std::size_t i) const { return configs_[i]; }

  /// Execute op `i` once and account for it. Returns the op's wall time, or
  /// a negative value when it failed. Every execution of an op, traced or
  /// at any shard count, must reproduce the digest of its first one.
  double execute(std::size_t i, RunResult& result, const Observe& observe = {}) {
    ++result.attempted;
    const std::uint64_t opId = nextOpId_++;
    runner::ExperimentConfig config = configs_[i];
    if (observe.shards != 0) config.shards = observe.shards;
    SpanRecorder* spans = observe.spans;
    OpOutcome outcome;
    const auto start = Clock::now();
    try {
      const std::size_t opSpan =
          spans != nullptr ? spans->begin("op", SpanRecorder::kNoParent, opId)
                           : SpanRecorder::kNoParent;
      outcome = workload_.cell
                    ? runCell(config, opId, spans, opSpan, observe.totals, observe.withTracer)
                    : runSingle(config, opId, spans, opSpan, observe.totals, observe.withTracer);
      if (spans != nullptr) spans->end(opSpan);
    } catch (const std::exception& e) {
      outcome.error = std::string("threw: ") + e.what();
    }
    const double wall = secondsSince(start);
    if (outcome.error.empty()) {
      if (!haveDigest_[i]) {
        digests_[i] = {outcome.digest, outcome.resultDigest};
        haveDigest_[i] = true;
      } else if (observe.shards != 0 ? digests_[i].second != outcome.resultDigest
                                      : digests_[i].first != outcome.digest) {
        outcome.error = "result digest differs from the op's first execution";
      }
    }
    if (observe.tracerEvents != nullptr) *observe.tracerEvents = outcome.tracerEvents;
    if (!outcome.error.empty()) {
      result.fail(std::string(workload_.name) + " op " + std::to_string(i) + ": " +
                  outcome.error);
      return -1.0;
    }
    return wall;
  }

  /// Cold passes: empty the trace memo, run every distinct op once.
  std::vector<double> setup(RunResult& result, std::size_t passes) {
    std::vector<double> seconds;
    for (std::size_t p = 0; p < passes; ++p) {
      trace::clearTraceCache();
      const auto start = Clock::now();
      for (std::size_t i = 0; i < configs_.size(); ++i) execute(i, result);
      seconds.push_back(secondsSince(start));
    }
    return seconds;
  }

 private:
  const SimWorkload& workload_;
  std::vector<runner::ExperimentConfig> configs_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> digests_;  ///< digest, resultDigest
  std::vector<bool> haveDigest_;
  std::uint64_t nextOpId_ = 0;
};

// ---- traced run: layer functions -------------------------------------------------------

struct LayerSpans {
  double generateS = 0.0;
  double contacts = 0.0;
  double warmupContacts = 0.0;
  double warmupS = 0.0;
  double selectS = 0.0;
  double replayS = 0.0;
  std::size_t ops = 0;
};

/// Re-run, outside the program, the calls runExperiment makes for one op's
/// set-up, each in its own span: uncached trace generation of the eval and
/// warm-up traces, the estimator warm-up, NCL selection, and a contact
/// replay with a no-op handler.
void runLayerFunctions(const runner::ExperimentConfig& config, std::uint64_t opId,
                       SpanRecorder& spans, LayerSpans& out) {
  const std::size_t root = spans.begin("layers", SpanRecorder::kNoParent, opId);
  trace::SyntheticTraceConfig evalCfg = config.trace;
  evalCfg.seed = evalCfg.seed * 1000003 + config.seed;  // as runExperiment mixes it
  trace::SyntheticTraceConfig warmCfg = evalCfg;
  warmCfg.duration = config.estimatorWarmup;
  warmCfg.seed = evalCfg.seed + 777;

  trace::SyntheticTrace world;
  trace::SyntheticTrace warm;
  {
    ScopedSpan span(&spans, "trace.generate", root, opId);
    const auto start = Clock::now();
    world = trace::generate(evalCfg);
    warm = trace::generate(warmCfg);
    out.generateS += secondsSince(start);
  }
  out.contacts += static_cast<double>(world.trace.contacts().size());
  out.warmupContacts += static_cast<double>(warm.trace.contacts().size());
  {
    ScopedSpan span(&spans, "trace.estimator_warmup", root, opId);
    const auto start = Clock::now();
    trace::ContactRateEstimator estimator(world.trace.nodeCount(), config.estimator,
                                          -config.estimatorWarmup);
    for (const auto& c : warm.trace.contacts())
      estimator.recordContact(c.a, c.b, c.start - config.estimatorWarmup);
    out.warmupS += secondsSince(start);
  }
  {
    ScopedSpan span(&spans, "cache.select_ncls", root, opId);
    const auto start = Clock::now();
    const std::size_t k =
        std::min(world.trace.nodeCount(), config.cache.cachingNodesPerItem + 1);
    const auto ncls = cache::selectNcls(world.rates, config.cache.centralityWindow, k);
    out.selectS += secondsSince(start);
    if (ncls.size() != k) throw std::runtime_error("selectNcls returned a short NCL set");
  }
  {
    ScopedSpan span(&spans, "net.replay", root, opId);
    const auto start = Clock::now();
    sim::Simulator simulator;
    net::Network network(simulator, world.trace, config.network);
    std::size_t delivered = 0;
    network.start([&delivered](NodeId, NodeId, sim::SimTime, sim::SimTime,
                               net::ContactChannel&) { ++delivered; });
    simulator.runUntil(evalCfg.duration);
    out.replayS += secondsSince(start);
    if (delivered != world.trace.contacts().size())
      throw std::runtime_error("net replay delivered a different contact count");
  }
  spans.end(root);
  ++out.ops;
}

void reportLayers(RunResult& result, const LayerTotals& t, const LayerTotals& sharded,
                  const LayerSpans& layers, double spanOverhead, std::uint64_t tracerEvents,
                  double tracerOverhead) {
  for (const auto& [name, unit] : perLayerMetrics())
    result.metrics.emplace(name, Metric{0.0, unit});  // keeps values already set
  const double ops = static_cast<double>(std::max<std::size_t>(1, t.ops));
  const double exps = static_cast<double>(std::max<std::size_t>(1, t.experiments));
  const double layerOps = static_cast<double>(std::max<std::size_t>(1, layers.ops));
  const auto counter = [&](const char* name) {
    const auto it = t.counters.find(name);
    return it == t.counters.end() ? 0.0 : it->second;
  };

  result.set("trace.generate_ms", 1e3 * layers.generateS / layerOps, "ms");
  result.set("trace.contacts", layers.contacts / layerOps, "count");
  result.set("trace.warmup_contacts", layers.warmupContacts / layerOps, "count");
  result.set("trace.estimator_warmup_ms", 1e3 * layers.warmupS / layerOps, "ms");
  result.set("cache.select_ncls_ms", 1e3 * layers.selectS / layerOps, "ms");
  result.set("net.replay_ms", 1e3 * layers.replayS / layerOps, "ms");

  const double delivered = counter("cache.push.delivered");
  const double noop = counter("cache.push.noop");
  const double denied = counter("cache.push.denied");
  result.set("cache.push.delivered", delivered / ops, "count/op");
  result.set("cache.push.noop", noop / ops, "count/op");
  result.set("cache.push.denied", denied / ops, "count/op");
  result.set("cache.push.useful_ratio", ratioOf(delivered, delivered + noop + denied), "ratio");
  result.set("cache.install.upgraded", counter("cache.install.upgraded") / ops, "count/op");
  result.set("cache.query.sprayed", counter("cache.query.sprayed") / ops, "count/op");
  result.set("cache.reply.delivered", counter("cache.reply.delivered") / ops, "count/op");
  result.set("net.contact.delivered", counter("net.contact.delivered") / ops, "count/op");
  result.set("sim.events", t.events / ops, "count/op");
  result.set("sim.peak_pending", t.peakPending, "count");
  result.set("sim.events_per_s", ratioOf(t.events, t.runS), "1/s");

  const double runs = counter("core.maintenance.runs");
  result.set("core.maintenance_ms", 1e3 * t.maintenanceS / ops, "ms");
  result.set("core.maintenance_share", ratioOf(t.maintenanceS, t.experimentS), "ratio");
  result.set("core.maintenance.runs", runs / ops, "count/op");
  result.set("core.maintenance.dirty_pairs", counter("core.maintenance.dirty_pairs") / ops,
             "count/op");
  result.set("core.maintenance.skipped", counter("core.maintenance.skipped") / ops, "count/op");
  result.set("core.plan.cache_hits", counter("core.plan.cache_hits") / ops, "count/op");
  result.set("core.plan.helpers", counter("core.plan.helpers") / ops, "count/op");
  result.set("core.predicted_p_mean",
             ratioOf(t.predictedSum, static_cast<double>(t.predictedCount)), "ratio");

  result.set("runner.experiment_ms", 1e3 * t.experimentS / exps, "ms");
  for (const auto& [scheme, v] : t.perScheme)
    result.set("runner.experiment_ms." + scheme,
               1e3 * v.first / static_cast<double>(std::max<std::size_t>(1, v.second)), "ms");
  result.set("runner.start_ms", 1e3 * t.startS / exps, "ms");
  result.set("runner.run_ms", 1e3 * t.runS / exps, "ms");
  result.set("runner.assembly_ms", 1e3 * (t.experimentS - t.startS - t.runS) / exps, "ms");
  const double shardedOps = static_cast<double>(std::max<std::size_t>(1, sharded.experiments));
  result.set("runner.shard.shards", sharded.shards, "count");
  result.set("runner.shard.boring_fraction", ratioOf(sharded.boring, sharded.shardContacts),
             "ratio");
  result.set("runner.shard.stolen_fraction", ratioOf(sharded.stolen, sharded.shardContacts),
             "ratio");
  result.set("runner.shard.barrier_waits", sharded.barrierWaits / shardedOps, "count/op");

  result.set("sweep.run_ms", 1e3 * t.sweepRunS / ops, "ms");
  result.set("sweep.overhead_ms",
             t.sweepRunS > 0.0 ? 1e3 * (t.sweepRunS - t.experimentS) / ops : 0.0, "ms");
  result.set("sweep.sink_ms", 1e3 * t.sinkS / ops, "ms");
  result.set("sweep.sink_bytes", t.sinkBytes / ops, "bytes/op");

  result.set("obs.span_overhead_ratio", spanOverhead, "ratio");
  result.set("obs.tracer_events", static_cast<double>(tracerEvents), "count");
  result.set("obs.tracer_overhead_ratio", tracerOverhead, "ratio");
}

void checkPredictions(RunResult& result, const std::string& workload) {
  const double share = result.metrics["core.maintenance_share"].value;
  const double shards = result.metrics["runner.shard.shards"].value;
  const auto predict = [&](bool holds, const std::string& what) {
    if (holds)
      result.notes.push_back("prediction holds: " + what);
    else
      result.warnings.push_back("prediction failed (the workload no longer loads the layer "
                                "it was chosen for): " + what);
  };
  if (workload == "reality-maintenance")
    predict(share >= 0.5, "core.maintenance_share >= 0.5 on reality-maintenance (" +
                              std::to_string(share) + ")");
  if (workload == "infocom-schemes")
    predict(share < 0.05, "core.maintenance_share < 0.05 on infocom-schemes (" +
                              std::to_string(share) + ")");
  predict(shards > 1.0, "runner.shard.shards > 1 on the two-worker op (" +
                            std::to_string(shards) + ")");
}

}  // namespace

bool isSimWorkload(const std::string& name) { return findWorkload(name) != nullptr; }

RunResult runSimWorkload(const Options& options) {
  const SimWorkload& workload = *findWorkload(options.workload);
  RunResult result;
  ClosedLoop closedLoop(workload, options.seed);
  for (std::size_t i = 0; i < closedLoop.opCount(); ++i) {
    const auto& c = closedLoop.config(i);
    result.notes.push_back("op " + std::to_string(i) + ": seed " + std::to_string(c.seed) +
                           ", config fingerprint " + sweep::configFingerprint(c) +
                           (workload.cell ? " (x7 schemes)" : ""));
  }

  const std::size_t passes = options.oneCycle || options.trace ? 1 : kSetupPasses;
  const std::vector<double> setupSeconds = closedLoop.setup(result, passes);

  if (!options.trace) {
    HostProbe probe;
    std::vector<std::vector<double>> latencyMs(closedLoop.opCount());
    const auto start = Clock::now();
    do {
      for (std::size_t i = 0; i < closedLoop.opCount(); ++i) {
        const double wall = closedLoop.execute(i, result);
        if (wall >= 0.0) latencyMs[i].push_back(1e3 * wall);
      }
    } while (!options.oneCycle && secondsSince(start) < options.seconds);
    const double timed = secondsSince(start);
    reportEndToEnd(result, setupSeconds, latencyMs, timed);
    probe.report(result, /*asMetrics=*/false);
    return result;
  }

  // Traced run: alternate plain cycles with span-recorded cycles for
  // --seconds, so both see the same host conditions; then one op with the
  // program's event tracer installed, then the layer functions once per
  // distinct op.
  HostProbe probe;
  SpanRecorder spans;
  LayerTotals totals;
  std::vector<double> plainMs;
  std::vector<double> spannedMs;
  std::vector<double> firstOpPlainMs;
  std::vector<std::vector<double>> plainByOp(closedLoop.opCount());
  double plainSeconds = 0.0;
  const auto start = Clock::now();
  bool spanned = false;
  do {
    const auto cycleStart = Clock::now();
    for (std::size_t i = 0; i < closedLoop.opCount(); ++i) {
      const double wall = spanned ? closedLoop.execute(i, result, {&spans, &totals})
                                  : closedLoop.execute(i, result);
      if (wall < 0.0) continue;
      (spanned ? spannedMs : plainMs).push_back(1e3 * wall);
      if (!spanned) plainByOp[i].push_back(1e3 * wall);
      if (!spanned && i == 0) firstOpPlainMs.push_back(1e3 * wall);
      if (spanned) ++totals.ops;
    }
    if (!spanned) plainSeconds += secondsSince(cycleStart);
    spanned = !spanned;
  } while (spanned || (!options.oneCycle && secondsSince(start) < options.seconds));

  std::uint64_t tracerEvents = 0;
  Observe withTracer;
  withTracer.withTracer = true;
  withTracer.tracerEvents = &tracerEvents;
  const double tracedWall = closedLoop.execute(0, result, withTracer);
  const double tracerOverhead =
      tracedWall >= 0.0 ? ratioOf(1e3 * tracedWall, median(firstOpPlainMs)) : 0.0;

  // Op 0 on the sharded kernel with two workers (what the auto rule picks
  // from 16,384 nodes on 4 cores), against the plain op 0 samples above:
  // the sharded kernel's stats and speed-up. Its digest must match.
  LayerTotals sharded;
  Observe twoWorkers;
  twoWorkers.totals = &sharded;
  twoWorkers.shards = kShardWorkers;
  std::vector<double> shardedMs;
  for (int k = 0; k < 3; ++k) {
    const double wall = closedLoop.execute(0, result, twoWorkers);
    if (wall >= 0.0) shardedMs.push_back(1e3 * wall);
  }

  LayerSpans layers;
  for (std::size_t i = 0; i < closedLoop.opCount(); ++i) {
    ++result.attempted;
    try {
      runLayerFunctions(closedLoop.config(i), 1000000 + i, spans, layers);
    } catch (const std::exception& e) {
      result.fail(std::string("layer functions: ") + e.what());
    }
  }

  reportLayers(result, totals, sharded, layers,
               ratioOf(median(spannedMs), median(plainMs)), tracerEvents, tracerOverhead);
  reportOpLayers(result, summarizeLatency(plainByOp, plainSeconds));
  result.set("runner.shard.speedup", ratioOf(median(firstOpPlainMs), median(shardedMs)), "ratio");
  const double items = static_cast<double>(closedLoop.config(0).catalog.itemCount);
  result.set("core.plan.reuse_ratio",
             ratioOf(result.metrics["core.plan.cache_hits"].value,
                     result.metrics["core.maintenance.runs"].value * items),
             "ratio");
  probe.report(result, /*asMetrics=*/true);
  checkPredictions(result, options.workload);
  reportSpans(result, spans, options);
  return result;
}

}  // namespace perfbench
