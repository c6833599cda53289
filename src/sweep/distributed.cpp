#include "sweep/distributed.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "sim/assert.hpp"
#include "sweep/result_sink.hpp"

namespace dtncache::sweep {

// ---- work-unit execution ----------------------------------------------------

Fragment runWorkUnitFragment(const SweepManifest& manifest, std::uint64_t sweepFp,
                             const SweepJob& jobIn) {
  SweepJob job = jobIn;
  std::unique_ptr<obs::Tracer> tracer;
  std::ostringstream traceOut;
  if (manifest.traceEnabled) {
    tracer = std::make_unique<obs::Tracer>(configFingerprint(job.config),
                                           manifest.traceFilter);
    job.config.tracer = tracer.get();
  } else {
    job.config.tracer = nullptr;
  }
  const JobResult result = runJob(std::move(job));
  if (tracer != nullptr) tracer->flushTo(traceOut);

  const auto fields = recordFields(result, manifest.wallClock);
  Fragment fragment;
  fragment.jobIndex = static_cast<std::uint64_t>(result.job.index);
  fragment.sweepFp = sweepFp;
  fragment.configFp = configFingerprintU64(result.job.config);
  fragment.jsonl = renderJsonlLine(fields);
  fragment.csvHeader = renderCsvHeader(fields);
  fragment.csvRow = renderCsvRow(fields);
  fragment.trace = traceOut.str();
  return fragment;
}

// ---- spool ------------------------------------------------------------------

std::size_t spoolInit(const SweepManifest& manifest, const std::string& storeDir) {
  FragmentStore store(storeDir);
  const std::string manifestText = encodeManifest(manifest);
  if (const auto existing = store.readFile("manifest.txt")) {
    DTNCACHE_CHECK_MSG(*existing == manifestText,
                       "store " << storeDir
                                << " holds a different sweep (manifest mismatch)");
  } else {
    store.writeFile("manifest.txt", manifestText);
  }
  const auto jobs = expandGrid(manifest.grid);

  // One peerd-style `"kind": "counters"` line, so trace_summarize.py's
  // counters readout works unchanged on a sweep store.
  obs::Registry registry;
  registry.counter("sweep.jobs_total").add(jobs.size());
  char fpHex[17];
  std::snprintf(fpHex, sizeof fpHex, "%016llx",
                static_cast<unsigned long long>(sweepFingerprint(manifestText)));
  std::ostringstream line;
  line << "{\"run\": \"sweep-" << fpHex << "\", \"kind\": \"counters\"";
  for (const auto& [name, value] : registry.counterSnapshot())
    line << ", \"ctr." << name << "\": " << value;
  line << "}\n";
  store.writeFile("status.jsonl", line.str());
  return jobs.size();
}

SpoolReport runSpoolWorker(const SpoolWorkerOptions& options) {
  FragmentStore store(options.storeDir);
  const auto manifestText = store.readFile("manifest.txt");
  DTNCACHE_CHECK_MSG(manifestText.has_value(),
                     "no manifest.txt in " << options.storeDir
                                           << " — run --spool-init first");
  const std::uint64_t sweepFp = sweepFingerprint(*manifestText);
  const SweepManifest manifest = decodeManifest(*manifestText);
  const auto jobs = expandGrid(manifest.grid);
  const auto units = workUnits(jobs);

  SpoolReport report;
  for (;;) {
    // Re-scan each pass: other workers complete units concurrently, and the
    // scan also drops any torn or bit-flipped fragment so its unit runs again.
    const auto scanned = store.scan(sweepFp, /*dropInvalid=*/true);
    ++report.scans;
    if (scanned.valid.size() >= units.size()) {
      report.allDone = true;
      return report;
    }
    bool progressed = false;
    for (const auto& unit : units) {
      if (scanned.valid.count(unit.index) != 0) continue;
      if (const auto age = store.leaseAge(unit.index)) {
        // Someone is (probably) on it — unless the lease is stale or its
        // holder is a process on this host that no longer exists.
        if (*age < options.leaseTimeout && !store.leaseHolderGone(unit.index))
          continue;
        store.releaseLease(unit.index);
      }
      if (!store.tryLease(unit.index)) continue;  // lost the race
      if (store.hasFragment(unit.index)) {
        // Completed by another worker between our scan and the lease. A
        // writer releases its lease only after the fragment rename, so this
        // post-lease check keeps workers that hold their leases from running
        // a unit twice. Two workers breaking the same dead lease at once can
        // still both run it; their fragments are the same bytes under the
        // same name, so the store ends up as if one had.
        store.releaseLease(unit.index);
        continue;
      }
      if (options.crashAfter > 0 && report.completed >= options.crashAfter)
        return report;  // simulated kill -9: lease held, no fragment written
      const Fragment fragment =
          runWorkUnitFragment(manifest, sweepFp, jobs[unit.index]);
      store.put(fragment);
      store.releaseLease(unit.index);
      ++report.completed;
      progressed = true;
      if (!options.quiet)
        std::fprintf(stderr, "spool-worker: job %llu done\n",
                     static_cast<unsigned long long>(unit.index));
    }
    if (!progressed)  // every incomplete unit is leased elsewhere; wait a beat
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

}  // namespace dtncache::sweep
