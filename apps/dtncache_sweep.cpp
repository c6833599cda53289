/// \file dtncache_sweep.cpp
/// Parameter-grid experiment driver on the parallel sweep engine.
///
/// Expands scheme × seed × knob axes over a base config (a config_io JSON
/// file or a runner/presets.hpp preset), runs the grid on a thread pool, and
/// emits one JSONL record per run plus a CSV summary — deterministically
/// ordered, so `--jobs 8` output is byte-identical to `--jobs 1` apart from
/// wall-clock fields. Progress/ETA goes to stderr.
///
/// Examples:
///   dtncache_sweep --trace=infocom --schemes=all --seeds=5 --csv=-
///   dtncache_sweep --config=run.json --seeds=8 --jobs=8 --jsonl=out.jsonl
///   dtncache_sweep --trace=reality --schemes=hierarchical --seeds=3 --csv=theta.csv
///     --sweep="hierarchical.replication.theta=0.5,0.7,0.9;catalog.refreshPeriodSeconds=43200,86400"
///     (one command line; no trailing backslashes here, they would continue the comment)
///   dtncache_sweep --trace=infocom --list   # print the expanded plan, run nothing
///
/// Distributed mode (see docs/sweep.md): spool workers share one fragment
/// store directory, and the merge is byte-identical to a single-process run
/// of the same grid. A store is always resumable: start more workers.
///   dtncache_sweep --trace=infocom --seeds=8 --store=S --spool-init
///   dtncache_sweep --store=S --spool-worker     # any number, any host w/ S mounted
///   dtncache_sweep --store=S --merge --csv=out.csv

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "runner/config_io.hpp"
#include "runner/flat_json.hpp"
#include "runner/presets.hpp"
#include "sweep/distributed.hpp"
#include "sweep/fragment_store.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/work_unit.hpp"
#include "sweep/sweep_engine.hpp"
#include "sweep/thread_pool.hpp"

using namespace dtncache;

namespace {

std::vector<runner::SchemeKind> parseSchemes(const std::string& spec,
                                             runner::ArgParser& args) {
  if (spec == "all") return runner::allSchemes();
  std::vector<runner::SchemeKind> schemes;
  for (const auto& name : runner::splitList(spec, ',')) {
    if (const auto kind = runner::parseSchemeName(name))
      schemes.push_back(*kind);
    else
      args.addError("unknown scheme '" + name + "'");
  }
  return schemes;
}

/// "key=v1,v2;key2=w1" → axes: the clauses of runner::splitAssignments,
/// each value split on ','.
std::vector<sweep::SweepAxis> parseAxes(const std::string& spec, runner::ArgParser& args) {
  std::vector<sweep::SweepAxis> axes;
  try {
    for (const auto& [key, values] : runner::splitAssignments(spec)) {
      axes.push_back({key, runner::splitList(values, ',')});
      if (axes.back().values.empty()) args.addError("sweep axis '" + key + "' has no values");
    }
  } catch (const std::exception& e) {
    args.addError(e.what());
  }
  return axes;
}

int runSweep(int argc, char** argv) {
  runner::ArgParser args(argc, argv);

  sweep::SweepGrid grid;
  grid.base = runner::baseConfig(args);
  const std::string schemeSpec = args.getString(
      "--schemes", "", "comma list of schemes, or 'all' (default: base config's)");
  const auto seedCount =
      args.getInt("--seeds", 1, "seed axis: base seed .. base seed + N - 1");
  const std::string sweepSpec = args.getString(
      "--sweep", "", "knob axes: \"key=v1,v2[;key2=w1,w2]\" (config_io dotted keys)");
  const auto jobs = args.getInt("--jobs", 0, "worker threads (0 = hardware cores)");
  const std::string jsonlPath =
      args.getString("--jsonl", "", "write one JSONL record per run ('-' = stdout)");
  const std::string csvPath =
      args.getString("--csv", "-", "write the CSV summary ('-' = stdout, '' = off)");
  const bool noWall =
      args.getBool("--no-wall", "omit wall-clock fields (byte-stable output)");
  const std::string traceOutPath = args.getString(
      "--trace-out", "", "write the merged JSONL event trace here ('-' = stdout)");
  const std::string traceFilterSpec =
      args.getString("--trace-filter", "", "comma list of event kinds to keep", "all");
  const bool quiet = args.getBool("--quiet", "suppress progress/ETA on stderr");
  const bool list = args.getBool("--list", "print the expanded job plan and exit");
  const std::string storeDir = args.getString(
      "--store", "", "fragment store directory (spool and merge modes)");
  const bool spoolInitMode = args.getBool(
      "--spool-init", "write the manifest into --store for spool workers, then exit");
  const bool spoolWorkerMode = args.getBool(
      "--spool-worker", "lease and run jobs from --store (shared dir, no networking)");
  const bool mergeMode = args.getBool(
      "--merge", "merge a complete --store into --jsonl/--csv/--trace-out and exit");
  const double leaseTimeout = args.getDouble(
      "--lease-timeout", 600.0,
      "seconds before a spool lease is broken (at once if its holder died on this host)");

  if (seedCount < 1) args.addError("--seeds must be >= 1");
  if (jobs < 0) args.addError("--jobs must be >= 0");
  const int modeCount = static_cast<int>(spoolInitMode) +
                        static_cast<int>(spoolWorkerMode) + static_cast<int>(mergeMode);
  if (modeCount > 1)
    args.addError("--spool-init, --spool-worker and --merge are mutually exclusive");
  if (modeCount > 0 && storeDir.empty()) args.addError("this mode needs --store=DIR");
  if (!storeDir.empty() && modeCount == 0)
    args.addError("--store needs a mode: --spool-init, --spool-worker or --merge");
  if (leaseTimeout <= 0.0) args.addError("--lease-timeout must be > 0");

  if (!schemeSpec.empty()) grid.schemes = parseSchemes(schemeSpec, args);
  for (std::int64_t i = 0; i < seedCount; ++i)
    grid.seeds.push_back(grid.base.seed + static_cast<std::uint64_t>(i));
  if (!sweepSpec.empty()) grid.axes = parseAxes(sweepSpec, args);
  if (const auto status = args.finish("dtncache_sweep")) return *status;

  // Parsed before mode dispatch so a typo'd filter fails in every mode.
  const obs::KindMask traceFilter = obs::parseKindFilter(traceFilterSpec);

  if (spoolWorkerMode) {
    sweep::SpoolWorkerOptions spoolOptions;
    spoolOptions.storeDir = storeDir;
    spoolOptions.leaseTimeout = leaseTimeout;
    spoolOptions.quiet = quiet;
    const auto report = sweep::runSpoolWorker(spoolOptions);
    if (!quiet)
      std::cerr << "spool-worker: " << report.completed << " job(s) completed"
                << (report.allDone ? ", store complete" : "") << "\n";
    return 0;
  }

  if (mergeMode) {
    // Assemble a complete fragment store into the requested outputs, strictly
    // in job-index order — the bytes a single-process run would have written.
    const sweep::FragmentStore store(storeDir);
    const auto manifestText = store.readFile("manifest.txt");
    if (!manifestText.has_value()) {
      std::cerr << "error: no manifest.txt in " << storeDir << "\n";
      return 2;
    }
    const auto manifest = sweep::decodeManifest(*manifestText);
    const auto units = sweep::workUnits(sweep::expandGrid(manifest.grid));
    std::ofstream jsonlFile, csvFile, traceFile;
    std::ostream* jsonl = jsonlPath.empty() ? nullptr : runner::openOutput(jsonlPath, jsonlFile);
    std::ostream* csv = csvPath.empty() ? nullptr : runner::openOutput(csvPath, csvFile);
    std::ostream* traceOut =
        traceOutPath.empty() ? nullptr : runner::openOutput(traceOutPath, traceFile);
    sweep::mergeFragments(store, sweep::sweepFingerprint(*manifestText), units, jsonl,
                          csv, traceOut);
    if (!quiet)
      std::cerr << "merge: " << units.size() << " job(s) from " << storeDir << "\n";
    return 0;
  }

  if (spoolInitMode) {
    // The flags describe the sweep; the manifest carries it to the workers.
    sweep::SweepManifest manifest;
    manifest.grid = grid;
    manifest.wallClock = !noWall;
    manifest.traceEnabled = !traceOutPath.empty();
    manifest.traceFilter = traceFilter;
    const auto jobCount = sweep::spoolInit(manifest, storeDir);
    if (!quiet)
      std::cerr << "spool store " << storeDir << " ready: " << jobCount
                << " job(s); run --spool-worker against it\n";
    return 0;
  }

  const auto plan = sweep::expandGrid(grid);  // validates axis keys up front
  if (list) {
    for (const auto& job : plan) {
      std::cout << job.index << "  " << sweep::configFingerprint(job.config) << "  "
                << runner::schemeName(job.config.scheme) << "  seed="
                << job.config.seed;
      for (const auto& [key, value] : job.overrides)
        std::cout << "  " << key << "=" << value;
      std::cout << "\n";
    }
    std::cerr << plan.size() << " job(s)\n";
    return 0;
  }

  std::ofstream jsonlFile, csvFile;
  std::vector<std::unique_ptr<sweep::ResultSink>> owned;
  std::vector<sweep::ResultSink*> sinks;
  if (!jsonlPath.empty()) {
    owned.push_back(
        std::make_unique<sweep::JsonlSink>(*runner::openOutput(jsonlPath, jsonlFile), !noWall));
    sinks.push_back(owned.back().get());
  }
  if (!csvPath.empty()) {
    owned.push_back(
        std::make_unique<sweep::CsvSink>(*runner::openOutput(csvPath, csvFile), !noWall));
    sinks.push_back(owned.back().get());
  }

  sweep::SweepOptions options;
  options.jobs = static_cast<std::size_t>(jobs);
  options.progress = !quiet;
  options.traceFilter = traceFilter;
  std::ofstream traceFile;
  if (!traceOutPath.empty()) options.traceOut = runner::openOutput(traceOutPath, traceFile);
  sweep::SweepEngine engine(options);
  const auto results = engine.runJobs(plan, sinks);

  if (!quiet) {
    double wall = 0.0;
    for (const auto& r : results) wall += r.wallSeconds;
    std::cerr << "sweep: " << results.size() << " run(s), "
              << (jobs == 0 ? sweep::ThreadPool::defaultWorkers()
                            : static_cast<std::size_t>(jobs))
              << " worker(s), total simulated work "
              << static_cast<long>(wall * 1000.0) << " ms\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return runSweep(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
