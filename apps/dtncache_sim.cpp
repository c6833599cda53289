/// \file dtncache_sim.cpp
/// The dtncache command-line simulator: run any scheme on a preset or
/// imported contact trace and print (or CSV-emit) the full metric set.
///
/// Examples:
///   dtncache --trace=infocom --scheme=hierarchical --tau-hours=6
///   dtncache --trace=reality --scheme=flooding --days=21 --csv
///   dtncache --trace-file=contacts.csv --theta=0.95 --dot=hier.dot
///   dtncache --trace-one=one_events.txt --scheme=epidemic
///
/// Per-field flags patch the base config (runner/presets.hpp) only when
/// given. Trace files: `--trace-file` takes the CSV contact format
/// (`start,duration,a,b`); `--trace-one` takes ONE-simulator connectivity
/// events — both accept real Reality/Infocom'06 exports.

#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "core/hierarchy_dot.hpp"
#include "metrics/load.hpp"
#include "metrics/report.hpp"
#include "obs/tracer.hpp"
#include "runner/config_io.hpp"
#include "runner/presets.hpp"
#include "sweep/sweep_engine.hpp"
#include "trace/one_format.hpp"
#include "trace/trace_cache.hpp"

using namespace dtncache;

int main(int argc, char** argv) {
  runner::ArgParser args(argc, argv);

  runner::ExperimentConfig config = runner::baseConfig(args);
  const std::string traceFile =
      args.getString("--trace-file", "", "CSV contact trace to run instead of a preset");
  const std::string traceOne =
      args.getString("--trace-one", "", "ONE-format connectivity trace to run");
  // Per-field flags patch the preset (or the --config file) only when given.
  const std::string kPreset = "the preset's value";
  const std::string schemeName = args.getString(
      "--scheme", "",
      "hierarchical | norefresh | sourcedirect | pull | invalidation | epidemic | flooding",
      kPreset);
  const double tauHours = args.getDouble("--tau-hours", 0, "refresh period per item", kPreset);
  const double theta =
      args.getDouble("--theta", 0, "freshness requirement probability", kPreset);
  const auto items = args.getInt("--items", 0, "catalog size", kPreset);
  const auto cachingNodes =
      args.getInt("--caching-nodes", 0, "caching nodes per item (R)", kPreset);
  const auto fanout = args.getInt("--fanout", 0, "hierarchy fanout bound", kPreset);
  const double queries =
      args.getDouble("--queries-per-day", 0, "queries per node per day", kPreset);
  const double deadlineHours =
      args.getDouble("--deadline-hours", 0, "query deadline in hours", kPreset);
  const auto seed = args.getInt("--seed", 0, "master random seed", kPreset);
  const bool oracle = args.getBool("--oracle-rates", "plan from true contact rates");
  const bool noRelays = args.getBool("--no-relays", "disable relay-assisted refresh");
  const double downtimeHours = args.getDouble(
      "--churn-downtime-hours", 0.0, "enable churn with this mean downtime (0 = off)");
  const bool csv = args.getBool("--csv", "emit one CSV row instead of tables");
  const std::string dotFile =
      args.getString("--dot", "", "write item 0's refresh hierarchy as Graphviz dot");
  const bool dumpConfigFlag = args.getBool(
      "--dump-config", "print the effective config as JSON and exit (archivable run spec)");
  const std::string traceOutPath = args.getString(
      "--trace-out", "", "write the structured JSONL event trace here ('-' = stdout)");
  const std::string traceFilterSpec =
      args.getString("--trace-filter", "", "comma list of event kinds to keep", "all");

  if (!traceFile.empty() && !traceOne.empty())
    args.addError("--trace-file and --trace-one are exclusive: give one trace file");
  const auto scheme = runner::parseSchemeName(schemeName);
  if (!scheme && args.provided("--scheme")) args.addError("unknown scheme '" + schemeName + "'");
  obs::KindMask traceFilter = obs::kAllKinds;
  try {  // validated even without --trace-out: typos never pass silently
    traceFilter = obs::parseKindFilter(traceFilterSpec);
  } catch (const std::exception& e) {
    args.addError(e.what());
  }

  if (const auto status = args.finish("dtncache")) return *status;

  if (scheme) config.scheme = *scheme;

  std::optional<trace::ContactTrace> external;
  try {  // an unreadable or malformed trace file is bad input, not a crash
    if (!traceFile.empty()) {
      external = trace::ContactTrace::loadCsv(traceFile);
    } else if (!traceOne.empty()) {
      auto imported = trace::loadOneConnectivityFile(traceOne);
      std::cerr << "imported ONE trace: " << imported.trace.nodeCount() << " hosts, "
                << imported.trace.contacts().size() << " contacts ("
                << imported.unmatchedDowns << " unmatched downs, "
                << imported.unterminatedUps << " unterminated ups)\n";
      external = std::move(imported.trace);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (external) config.externalTrace = &*external;

  if (args.provided("--items")) config.catalog.itemCount = static_cast<std::size_t>(items);
  if (args.provided("--tau-hours")) config.catalog.refreshPeriod = sim::hours(tauHours);
  if (args.provided("--queries-per-day")) config.workload.queriesPerNodePerDay = queries;
  if (args.provided("--deadline-hours")) config.workload.queryDeadline = sim::hours(deadlineHours);
  if (args.provided("--caching-nodes"))
    config.cache.cachingNodesPerItem = static_cast<std::size_t>(cachingNodes);
  if (args.provided("--fanout"))
    config.hierarchical.hierarchy.fanoutBound = static_cast<std::size_t>(fanout);
  if (args.provided("--theta")) config.hierarchical.replication.theta = theta;
  if (oracle) config.hierarchical.useOracleRates = !external;  // oracle needs ground truth
  if (noRelays) config.hierarchical.relayAssisted = false;
  if (args.provided("--seed")) config.seed = static_cast<std::uint64_t>(seed);
  if (downtimeHours > 0.0) {
    config.churnEnabled = true;
    config.churn.meanDowntime = sim::hours(downtimeHours);
  }

  if (dumpConfigFlag) {
    std::cout << runner::dumpConfig(config);
    return 0;
  }

  // Structured event tracing: one tracer for the whole run, labeled with
  // the config fingerprint (the same label a sweep would use), flushed
  // after the simulation so the hot path never touches the stream.
  std::ofstream traceOutFile;
  std::ostream* traceStream = nullptr;
  std::unique_ptr<obs::Tracer> tracer;
  if (!traceOutPath.empty()) {
    if (traceOutPath == "-") {
      traceStream = &std::cout;
    } else {
      traceOutFile.open(traceOutPath);
      if (!traceOutFile.good()) {
        std::cerr << "error: cannot write " << traceOutPath << "\n";
        return 2;
      }
      traceStream = &traceOutFile;
    }
    tracer = std::make_unique<obs::Tracer>(sweep::configFingerprint(config), traceFilter);
    config.tracer = tracer.get();
  }

  const auto out = runner::runExperiment(config);

  if (tracer != nullptr) {
    tracer->flushTo(*traceStream);
    traceStream->flush();
    std::cerr << "trace: " << tracer->eventCount() << " event(s)"
              << (traceOutPath == "-" ? "" : " -> " + traceOutPath) << "\n";
  }
  const auto& r = out.results;
  const auto load = metrics::loadStats(r.transfers.perNodeRefreshBytes());

  if (csv) {
    metrics::Table row(
        {"scheme", "mean_fresh", "final_fresh", "mean_valid", "within_tau", "issued",
         "answered_ratio", "valid_ratio", "fresh_answer_ratio", "mean_delay_s",
         "refresh_bytes", "control_bytes", "refresh_gini", "predicted_p", "helpers"});
    row.addRow({out.scheme, metrics::fmt(r.meanFreshFraction, 4),
                metrics::fmt(r.finalFreshFraction, 4), metrics::fmt(r.meanValidFraction, 4),
                metrics::fmt(r.refreshWithinPeriodRatio, 4),
                std::to_string(r.queries.issued), metrics::fmt(r.queries.answeredRatio(), 4),
                metrics::fmt(r.queries.successRatio(), 4),
                metrics::fmt(r.queries.freshAnswerRatio(), 4),
                metrics::fmt(r.queries.delay.mean(), 1),
                std::to_string(r.transfers.of(net::Traffic::kRefresh).bytes),
                std::to_string(r.transfers.of(net::Traffic::kControl).bytes),
                metrics::fmt(load.gini, 3), metrics::fmt(out.meanPredictedProbability, 4),
                std::to_string(out.replicationAssignments)});
    row.printCsv(std::cout);
  } else {
    std::cout << "scheme: " << out.scheme << "   trace: "
              << (external ? "external" : runner::rateModelName(config.trace.model)) << " ("
              << out.traceStats.nodeCount
              << " nodes, " << metrics::fmt(sim::toDays(out.traceStats.duration), 1)
              << " days, " << out.traceStats.contactCount << " contacts)\n\n";
    metrics::Table table({"metric", "value"});
    table.addRow({"mean fresh fraction", metrics::fmt(r.meanFreshFraction)})
        .addRow({"mean valid fraction", metrics::fmt(r.meanValidFraction)})
        .addRow({"P(refresh within tau)", metrics::fmt(r.refreshWithinPeriodRatio)})
        .addRow({"queries issued", std::to_string(r.queries.issued)})
        .addRow({"answered ratio", metrics::fmt(r.queries.answeredRatio())})
        .addRow({"valid-answer ratio", metrics::fmt(r.queries.successRatio())})
        .addRow({"fresh-answer ratio", metrics::fmt(r.queries.freshAnswerRatio())})
        .addRow({"mean access delay (h)", metrics::fmt(sim::toHours(r.queries.delay.mean()), 2)})
        .addRow({"refresh traffic (MB)",
                 metrics::fmt(static_cast<double>(r.transfers.of(net::Traffic::kRefresh).bytes) /
                                  (1024.0 * 1024.0),
                              1)})
        .addRow({"refresh-load gini", metrics::fmt(load.gini, 2)});
    if (out.scheme == "Hierarchical") {
      table.addRow({"predicted P(refresh)", metrics::fmt(out.meanPredictedProbability)})
          .addRow({"replication helpers", std::to_string(out.replicationAssignments)})
          .addRow({"max tree depth", std::to_string(out.maxHierarchyDepth)});
    }
    if (config.churnEnabled) {
      table.addRow({"churn transitions", std::to_string(out.churnTransitions)})
          .addRow({"suppressed contacts", std::to_string(out.contactsSuppressed)})
          .addRow({"churn repairs", std::to_string(out.churnRepairs)});
    }
    table.print(std::cout);
  }

  if (!dotFile.empty()) {
    // Re-plan item 0's hierarchy outside the simulation for visualization,
    // on the trace the run used (a generated one is memoized, so not
    // generated twice).
    const auto world =
        external ? std::make_shared<const trace::SyntheticTrace>(trace::adoptTrace(*external))
                 : trace::generateShared(runner::runTraceConfig(config));
    data::CatalogConfig cc = config.catalog;
    cc.nodeCount = world->trace.nodeCount();
    const auto catalog = data::makeUniformCatalog(cc);
    sim::Simulator simulator;
    net::Network network(simulator, world->trace);
    trace::ContactRateEstimator estimator(world->trace.nodeCount(), {}, 0.0);
    metrics::MetricsCollector collector(catalog, 0.0);
    cache::CooperativeCache coop(simulator, network, catalog, estimator, collector,
                                 world->rates, config.cache);
    const core::RateFn rate = [&world](NodeId i, NodeId j) { return world->rates.rate(i, j); };
    const auto h = core::RefreshHierarchy::build(
        catalog.spec(0).source, coop.cachingNodesOf(0), rate,
        catalog.spec(0).refreshPeriod, config.hierarchical.hierarchy);
    const auto plan = core::planReplication(h, rate, catalog.spec(0).refreshPeriod,
                                            config.hierarchical.replication);
    std::ofstream dot(dotFile);
    dot << core::toDot(h, &plan, rate, catalog.spec(0).refreshPeriod);
    std::cerr << "wrote " << dotFile << "\n";
  }
  return 0;
}
