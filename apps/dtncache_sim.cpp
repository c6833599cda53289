/// \file dtncache_sim.cpp
/// The dtncache command-line simulator: run any scheme on a preset or
/// imported contact trace and print a metric table, or with `--csv` the
/// sweep's record (the header and row `dtncache_sweep --no-wall` writes).
///
/// Examples:
///   dtncache --trace=infocom --scheme=hierarchical --set=catalog.refreshPeriodSeconds=21600
///   dtncache --trace=reality --scheme=flooding --days=21 --csv
///   dtncache --trace-file=contacts.csv --set=hierarchical.replication.theta=0.95 --dot=hier.dot
///   dtncache --trace-one=one_events.txt --scheme=epidemic
///
/// `--set="key=value;key=value"` patches the base config (runner/presets.hpp)
/// with any config_io key, checked as a `--config` file's keys are. Trace
/// files: `--trace-file` takes the CSV contact format (`start,duration,a,b`);
/// `--trace-one` takes ONE-simulator connectivity events — both accept real
/// Reality/Infocom'06 exports.

#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <optional>

#include "cache/coop_cache.hpp"
#include "core/hierarchy_dot.hpp"
#include "metrics/load.hpp"
#include "metrics/report.hpp"
#include "obs/tracer.hpp"
#include "runner/config_io.hpp"
#include "runner/flat_json.hpp"
#include "runner/presets.hpp"
#include "sweep/result_sink.hpp"
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
  const std::string schemeName = args.getString(
      "--scheme", "",
      "hierarchical | norefresh | sourcedirect | pull | invalidation | epidemic | flooding",
      "the config's");
  const std::string setSpec = args.getString(
      "--set", "", "config keys to patch, \"key=value;key2=value2\" (config_io dotted keys)");
  const bool csv = args.getBool("--csv", "print the sweep's CSV record instead of tables");
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
  obs::KindMask traceFilter = obs::kAllKinds;
  try {  // validated even without --trace-out: typos never pass silently
    traceFilter = obs::parseKindFilter(traceFilterSpec);
  } catch (const std::exception& e) {
    args.addError(e.what());
  }

  try {  // --scheme=S is the clause scheme=S, before the --set clauses
    auto clauses = runner::splitAssignments(setSpec);
    if (args.provided("--scheme")) clauses.insert(clauses.begin(), {"scheme", schemeName});
    runner::applyConfigJson(config, runner::assignmentsJson(clauses));
  } catch (const std::exception& e) {
    args.addError(e.what());
  }

  if (const auto status = args.finish("dtncache")) return *status;

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
    traceStream = runner::openOutput(traceOutPath, traceOutFile);
    tracer = std::make_unique<obs::Tracer>(sweep::configFingerprint(config), traceFilter);
    config.tracer = tracer.get();
  }

  runner::ExperimentOutput out;
  try {  // e.g. a trace file with too few nodes for the preset's caching sets
    out = runner::runExperiment(config);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  if (tracer != nullptr) {
    tracer->flushTo(*traceStream);
    traceStream->flush();
    std::cerr << "trace: " << tracer->eventCount() << " event(s)"
              << (traceOutPath == "-" ? "" : " -> " + traceOutPath) << "\n";
  }
  if (csv) {
    sweep::CsvSink(std::cout, /*wallClock=*/false)
        .write({sweep::SweepJob{0, config, {}}, std::move(out), 0.0});
  } else {
    const auto& r = out.results;
    const auto load = metrics::loadStats(r.transfers.perNodeRefreshBytes());
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
    const auto& spec = catalog.spec(0);
    const core::RateFn rate = [&world](NodeId i, NodeId j) { return world->rates.rate(i, j); };
    const auto h = core::RefreshHierarchy::build(
        spec.source, cache::selectCachingNodes(world->rates, cc.nodeCount, catalog, config.cache)[0],
        rate, spec.refreshPeriod, config.hierarchical.hierarchy);
    const auto plan =
        core::planReplication(h, rate, spec.refreshPeriod, config.hierarchical.replication);
    std::ofstream(dotFile) << core::toDot(h, &plan, rate, spec.refreshPeriod);
    std::cerr << "wrote " << dotFile << "\n";
  }
  return 0;
}
