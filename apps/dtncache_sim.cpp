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
/// Trace files: `--trace-file` takes the CSV contact format
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
#include "runner/args.hpp"
#include "runner/config_io.hpp"
#include "runner/experiment.hpp"
#include "sweep/sweep_engine.hpp"
#include "trace/mobility.hpp"
#include "trace/one_format.hpp"

using namespace dtncache;

namespace {

std::optional<runner::SchemeKind> parseScheme(const std::string& name) {
  for (const auto kind : runner::allSchemes()) {
    std::string lower = runner::schemeName(kind);
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    if (lower == name) return kind;
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  runner::ArgParser args(argc, argv);

  const std::string traceName = args.getString(
      "--trace", "infocom", "trace preset: reality | infocom | mobility");
  const auto nodesFlag =
      args.getInt("--nodes", 0, "node count for the mobility preset (0 = preset default)");
  const std::string traceFile =
      args.getString("--trace-file", "", "CSV contact trace to run instead of a preset");
  const std::string traceOne =
      args.getString("--trace-one", "", "ONE-format connectivity trace to run");
  const std::string schemeName = args.getString(
      "--scheme", "hierarchical",
      "hierarchical | norefresh | sourcedirect | pull | invalidation | epidemic | flooding");
  const double days = args.getDouble("--days", 0.0, "override trace duration in days (presets)");
  const double tauHours = args.getDouble("--tau-hours", 6.0, "refresh period per item");
  const double theta = args.getDouble("--theta", 0.9, "freshness requirement probability");
  const auto items = args.getInt("--items", 10, "catalog size");
  const auto cachingNodes = args.getInt("--caching-nodes", 8, "caching nodes per item (R)");
  const auto fanout = args.getInt("--fanout", 3, "hierarchy fanout bound");
  const double queries = args.getDouble("--queries-per-day", 2.0, "queries per node per day");
  const double deadlineHours =
      args.getDouble("--deadline-hours", 3.0, "query deadline in hours");
  const auto seed = args.getInt("--seed", 1, "master random seed");
  const bool oracle = args.getBool("--oracle-rates", "plan from true contact rates");
  const bool noRelays = args.getBool("--no-relays", "disable relay-assisted refresh");
  const double downtimeHours = args.getDouble(
      "--churn-downtime-hours", 0.0, "enable churn with this mean downtime (0 = off)");
  const bool csv = args.getBool("--csv", "emit one CSV row instead of tables");
  const std::string dotFile =
      args.getString("--dot", "", "write item 0's refresh hierarchy as Graphviz dot");
  const std::string configFile = args.getString(
      "--config", "", "load a JSON experiment config (flags below override it)");
  const bool dumpConfigFlag = args.getBool(
      "--dump-config", "print the effective config as JSON and exit (archivable run spec)");
  const std::string traceOutPath = args.getString(
      "--trace-out", "", "write the structured JSONL event trace here ('-' = stdout)");
  const std::string traceFilterSpec = args.getString(
      "--trace-filter", "", "comma list of event kinds to keep (default: all)");

  if (args.helpRequested()) {
    std::cout << args.helpText("dtncache");
    return 0;
  }
  const auto errors = args.errors();
  if (!errors.empty()) {
    for (const auto& e : errors) std::cerr << "error: " << e << "\n";
    std::cerr << "\n" << args.helpText("dtncache");
    return 2;
  }

  // With --config, only explicitly supplied flags override the file; on a
  // plain invocation every flag (or its default) applies.
  runner::ExperimentConfig config;
  const bool fromConfig = !configFile.empty();
  if (fromConfig) config = runner::loadConfigFile(configFile);
  const auto applies = [&](const char* flag) { return !fromConfig || args.provided(flag); };

  if (applies("--scheme")) {
    const auto scheme = parseScheme(schemeName);
    if (!scheme) {
      std::cerr << "error: unknown scheme '" << schemeName << "'\n";
      return 2;
    }
    config.scheme = *scheme;
  }

  std::optional<trace::ContactTrace> external;
  if (!traceFile.empty()) {
    external = trace::ContactTrace::loadCsv(traceFile);
  } else if (!traceOne.empty()) {
    auto imported = trace::loadOneConnectivityFile(traceOne);
    std::cerr << "imported ONE trace: " << imported.trace.nodeCount() << " hosts, "
              << imported.trace.contacts().size() << " contacts ("
              << imported.unmatchedDowns << " unmatched downs, "
              << imported.unterminatedUps << " unterminated ups)\n";
    external = std::move(imported.trace);
  } else if (applies("--trace")) {
    if (traceName == "reality") {
      config.trace = trace::realityLikeConfig(static_cast<std::uint64_t>(seed));
    } else if (traceName == "infocom") {
      config.trace = trace::infocomLikeConfig(static_cast<std::uint64_t>(seed));
    } else if (traceName == "mobility") {
      config.trace = trace::mobilityConfig(
          nodesFlag > 0 ? static_cast<std::size_t>(nodesFlag) : 1000,
          static_cast<std::uint64_t>(seed));
    } else {
      std::cerr << "error: unknown trace preset '" << traceName << "'\n";
      return 2;
    }
  }
  if (nodesFlag > 0 && traceName != "mobility" && !external)
    config.trace.nodeCount = static_cast<std::size_t>(nodesFlag);
  if (external) config.externalTrace = &*external;
  if (days > 0.0) config.trace.duration = sim::days(days);

  if (applies("--items")) config.catalog.itemCount = static_cast<std::size_t>(items);
  if (applies("--tau-hours")) config.catalog.refreshPeriod = sim::hours(tauHours);
  if (applies("--queries-per-day")) config.workload.queriesPerNodePerDay = queries;
  if (applies("--deadline-hours")) config.workload.queryDeadline = sim::hours(deadlineHours);
  if (applies("--caching-nodes"))
    config.cache.cachingNodesPerItem = static_cast<std::size_t>(cachingNodes);
  if (applies("--fanout"))
    config.hierarchical.hierarchy.fanoutBound = static_cast<std::size_t>(fanout);
  if (applies("--theta")) config.hierarchical.replication.theta = theta;
  if (applies("--oracle-rates"))
    config.hierarchical.useOracleRates = oracle && !external;  // oracle needs ground truth
  if (applies("--no-relays")) config.hierarchical.relayAssisted = !noRelays;
  if (applies("--seed")) config.seed = static_cast<std::uint64_t>(seed);
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
  obs::KindMask traceFilter = obs::kAllKinds;
  try {  // validate the filter even without --trace-out: typos never pass silently
    traceFilter = obs::parseKindFilter(traceFilterSpec);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
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
    // Re-plan item 0's hierarchy outside the simulation for visualization.
    trace::SyntheticTrace world;
    if (external) {
      world.trace = *external;
      world.rates = trace::RateMatrix::fitFromTrace(world.trace);
    } else {
      auto tc = config.trace;
      tc.seed = tc.seed * 1000003 + config.seed;
      world = trace::generate(tc);
    }
    data::CatalogConfig cc = config.catalog;
    cc.nodeCount = world.trace.nodeCount();
    const auto catalog = data::makeUniformCatalog(cc);
    sim::Simulator simulator;
    net::Network network(simulator, world.trace);
    trace::EstimatorConfig ec;
    trace::ContactRateEstimator estimator(world.trace.nodeCount(), ec, 0.0);
    metrics::MetricsCollector collector(catalog, 0.0);
    cache::CooperativeCache coop(simulator, network, catalog, estimator, collector,
                                 world.rates, config.cache);
    const core::RateFn rate = [&world](NodeId i, NodeId j) { return world.rates.rate(i, j); };
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
