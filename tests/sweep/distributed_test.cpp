#include "sweep/distributed.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "sim/assert.hpp"
#include "sweep/result_sink.hpp"
#include "trace/generators.hpp"

namespace dtncache::sweep {
namespace {

std::string tempStore(const std::string& name) {
  // TempDir() outlives a ctest invocation; start from a clean slate so a
  // stale lease or fragment from a previous run cannot leak in.
  const std::string dir = std::string(::testing::TempDir()) + "dtncache_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

SweepManifest tinyManifest() {
  SweepManifest manifest;
  manifest.grid.base.trace = trace::homogeneousConfig(12, 6.0, sim::days(1), 9);
  manifest.grid.base.catalog.itemCount = 2;
  manifest.grid.base.catalog.refreshPeriod = sim::hours(12);
  manifest.grid.base.workload.queriesPerNodePerDay = 2.0;
  manifest.grid.base.cache.cachingNodesPerItem = 4;
  manifest.grid.schemes = {runner::SchemeKind::kHierarchical,
                           runner::SchemeKind::kEpidemic};
  manifest.grid.seeds = {3, 4};
  manifest.wallClock = false;
  manifest.traceEnabled = true;
  return manifest;
}

/// Engine reference streams for a manifest: what any distributed run of the
/// same grid must reproduce byte for byte.
struct Reference {
  std::string jsonl;
  std::string csv;
  std::string trace;
};

Reference engineReference(const SweepManifest& manifest) {
  std::ostringstream jsonl, csv, traceOut;
  JsonlSink jsonlSink(jsonl, manifest.wallClock);
  CsvSink csvSink(csv, manifest.wallClock);
  SweepOptions options;
  options.jobs = 2;
  if (manifest.traceEnabled) options.traceOut = &traceOut;
  options.traceFilter = manifest.traceFilter;
  SweepEngine engine(options);
  engine.run(manifest.grid, {&jsonlSink, &csvSink});
  return {jsonl.str(), csv.str(), traceOut.str()};
}

Reference mergedStore(const std::string& storeDir, const SweepManifest& manifest) {
  const FragmentStore store(storeDir);
  const std::uint64_t sweepFp = sweepFingerprint(encodeManifest(manifest));
  const auto units = workUnits(expandGrid(manifest.grid));
  std::ostringstream jsonl, csv, traceOut;
  mergeFragments(store, sweepFp, units, &jsonl, &csv, &traceOut);
  return {jsonl.str(), csv.str(), traceOut.str()};
}

std::string thisHost() {
  char name[256] = {};
  ::gethostname(name, sizeof name - 1);
  return name;
}

/// The pid of a child that has exited and been reaped: a process that no
/// longer exists, as a `kill -9`'d worker's would be.
pid_t reapedPid() {
  const pid_t child = ::fork();
  if (child == 0) ::_exit(0);
  ::waitpid(child, nullptr, 0);
  return child;
}

/// Plant a lease file naming `host`/`pid` as its holder, as tryLease would.
void writeLease(const std::string& storeDir, std::uint64_t index,
                const std::string& host, pid_t pid) {
  std::ofstream(storeDir + "/lease-" + std::to_string(index))
      << host << ' ' << pid << '\n';
}

// ---- spool mode: randomized kill-and-resume ---------------------------------

TEST(Distributed, SpoolKillAndResumeLosesNothing) {
  const SweepManifest manifest = tinyManifest();
  const Reference reference = engineReference(manifest);
  const std::string storeDir = tempStore("spool_kill");
  const std::size_t jobCount = spoolInit(manifest, storeDir);
  ASSERT_EQ(jobCount, 4u);

  // Crash-loop: every worker dies (holding a lease, mid-"write") after a
  // random number of completions; the next worker breaks the stale lease
  // and carries on. leaseTimeout 0 treats any existing lease as stale,
  // which is exactly the semantics of "that process is dead".
  std::mt19937_64 rng(11);
  SpoolReport report;
  int spawned = 0;
  while (!report.allDone) {
    ASSERT_LT(++spawned, 64) << "spool crash-loop failed to converge";
    SpoolWorkerOptions options;
    options.storeDir = storeDir;
    options.quiet = true;
    options.leaseTimeout = 0.0;
    options.crashAfter = 1 + rng() % 2;
    report = runSpoolWorker(options);
  }

  const Reference merged = mergedStore(storeDir, manifest);
  EXPECT_EQ(merged.jsonl, reference.jsonl);
  EXPECT_EQ(merged.csv, reference.csv);
  EXPECT_EQ(merged.trace, reference.trace);
  // No duplicated rows: line count equals the job count exactly.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(merged.jsonl.begin(), merged.jsonl.end(), '\n')),
            jobCount);
}

TEST(Distributed, SpoolWorkersRunConcurrently) {
  const SweepManifest manifest = tinyManifest();
  const Reference reference = engineReference(manifest);
  const std::string storeDir = tempStore("spool_pair");
  spoolInit(manifest, storeDir);

  SpoolWorkerOptions options;
  options.storeDir = storeDir;
  options.quiet = true;
  SpoolReport r1, r2;
  std::thread a([&] { r1 = runSpoolWorker(options); });
  std::thread b([&] { r2 = runSpoolWorker(options); });
  a.join();
  b.join();
  EXPECT_TRUE(r1.allDone);
  EXPECT_TRUE(r2.allDone);
  EXPECT_EQ(r1.completed + r2.completed, 4u);

  const Reference merged = mergedStore(storeDir, manifest);
  EXPECT_EQ(merged.jsonl, reference.jsonl);
  EXPECT_EQ(merged.csv, reference.csv);
  EXPECT_EQ(merged.trace, reference.trace);
}

TEST(Distributed, LoneSpoolWorkerDoesExactWork) {
  // One worker over an 8-unit store must run every unit in a single pass of
  // the lease loop: one scan to pick up all eight, one more to see the
  // store complete. A loop that rescans after every job, leaks a lease, or
  // runs a unit twice shows up in these counts.
  SweepManifest manifest = tinyManifest();
  manifest.grid.seeds = {1, 2, 3, 4};
  manifest.traceEnabled = false;
  const std::string storeDir = tempStore("spool_lone");
  ASSERT_EQ(spoolInit(manifest, storeDir), 8u);

  SpoolWorkerOptions options;
  options.storeDir = storeDir;
  options.quiet = true;
  const SpoolReport report = runSpoolWorker(options);
  EXPECT_TRUE(report.allDone);
  EXPECT_EQ(report.completed, 8u);
  EXPECT_EQ(report.scans, 2u);

  std::size_t fragments = 0;
  for (const auto& entry : std::filesystem::directory_iterator(storeDir + "/frags"))
    if (entry.is_regular_file()) ++fragments;
  EXPECT_EQ(fragments, 8u);
  for (const auto& entry : std::filesystem::directory_iterator(storeDir))
    EXPECT_NE(entry.path().filename().string().rfind("lease-", 0), 0u)
        << "lease left behind: " << entry.path();
}

// ---- spoolInit as coordinator, worker processes -------------------------------

TEST(Distributed, CoordinatorTwoWorkersByteIdenticalToEngine) {
  // spoolInit does all the coordinating there is: it publishes the manifest
  // and the job count. The two workers are separate processes, as the CLI
  // runs them, so each sees the other's leases naming a live pid on this
  // host and must leave them alone.
  const SweepManifest manifest = tinyManifest();
  const Reference reference = engineReference(manifest);
  const std::string storeDir = tempStore("coord_two");
  ASSERT_EQ(spoolInit(manifest, storeDir), 4u);
  const auto status = FragmentStore(storeDir).readFile("status.jsonl");
  ASSERT_TRUE(status.has_value());
  EXPECT_NE(status->find("\"ctr.sweep.jobs_total\": 4"), std::string::npos) << *status;

  // Each child exits with its completion count (255 = it threw or never
  // saw the store complete).
  auto spawnWorker = [&storeDir] {
    const pid_t child = ::fork();
    if (child == 0) {
      int code = 255;
      try {
        SpoolWorkerOptions options;
        options.storeDir = storeDir;
        options.quiet = true;
        const SpoolReport report = runSpoolWorker(options);
        if (report.allDone) code = static_cast<int>(report.completed);
      } catch (...) {
      }
      ::_exit(code);
    }
    return child;
  };
  const pid_t workerA = spawnWorker();
  const pid_t workerB = spawnWorker();
  ASSERT_GT(workerA, 0);
  ASSERT_GT(workerB, 0);
  int statusA = 0, statusB = 0;
  ASSERT_EQ(::waitpid(workerA, &statusA, 0), workerA);
  ASSERT_EQ(::waitpid(workerB, &statusB, 0), workerB);
  ASSERT_TRUE(WIFEXITED(statusA));
  ASSERT_TRUE(WIFEXITED(statusB));
  EXPECT_NE(WEXITSTATUS(statusA), 255);
  EXPECT_NE(WEXITSTATUS(statusB), 255);
  EXPECT_EQ(WEXITSTATUS(statusA) + WEXITSTATUS(statusB), 4);

  const Reference merged = mergedStore(storeDir, manifest);
  EXPECT_EQ(merged.jsonl, reference.jsonl);
  EXPECT_EQ(merged.csv, reference.csv);
  EXPECT_EQ(merged.trace, reference.trace);
}

TEST(Distributed, ResumeRequiresFlagAndSkipsCompleted) {
  // A spool store needs no resume flag; what guards a non-empty store is
  // its manifest. spoolInit refuses a store holding a different sweep,
  // accepts the same sweep again, and a worker then runs nothing.
  const SweepManifest manifest = tinyManifest();
  const std::uint64_t sweepFp = sweepFingerprint(encodeManifest(manifest));
  const std::string storeDir = tempStore("resume_skip");
  spoolInit(manifest, storeDir);
  {
    const FragmentStore store(storeDir);
    for (const auto& job : expandGrid(manifest.grid))
      store.put(runWorkUnitFragment(manifest, sweepFp, job));
  }

  SweepManifest other = manifest;
  other.grid.seeds = {5, 6};
  EXPECT_THROW(spoolInit(other, storeDir), InvariantViolation);

  EXPECT_EQ(spoolInit(manifest, storeDir), 4u);
  SpoolWorkerOptions options;
  options.storeDir = storeDir;
  options.quiet = true;
  const SpoolReport report = runSpoolWorker(options);
  EXPECT_TRUE(report.allDone);
  EXPECT_EQ(report.completed, 0u);  // nothing left to run
}

TEST(Distributed, ResumeRequeuesCorruptFragments) {
  const SweepManifest manifest = tinyManifest();
  const Reference reference = engineReference(manifest);
  const std::uint64_t sweepFp = sweepFingerprint(encodeManifest(manifest));
  const std::string storeDir = tempStore("resume_corrupt");
  spoolInit(manifest, storeDir);
  {
    const FragmentStore store(storeDir);
    for (const auto& job : expandGrid(manifest.grid)) {
      if (job.index == 2) {
        // Bank a bit-flipped fragment for job 2: resume must drop and re-run.
        auto bytes = encodeFragment(runWorkUnitFragment(manifest, sweepFp, job));
        bytes[bytes.size() - 1] ^= 0x40;
        std::ofstream out(storeDir + "/frags/job-0000000002-00000bad.frag",
                          std::ios::binary);
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<long>(bytes.size()));
      } else {
        store.put(runWorkUnitFragment(manifest, sweepFp, job));
      }
    }
  }

  // Resuming a spool store is just starting a worker against it.
  SpoolWorkerOptions options;
  options.storeDir = storeDir;
  options.quiet = true;
  const SpoolReport report = runSpoolWorker(options);
  EXPECT_TRUE(report.allDone);
  EXPECT_EQ(report.completed, 1u);  // only the corrupt job ran again
  EXPECT_FALSE(std::filesystem::exists(storeDir +
                                       "/frags/job-0000000002-00000bad.frag"));

  const Reference merged = mergedStore(storeDir, manifest);
  EXPECT_EQ(merged.jsonl, reference.jsonl);
  EXPECT_EQ(merged.csv, reference.csv);
  EXPECT_EQ(merged.trace, reference.trace);
}

// ---- spool leases: holder liveness ------------------------------------------

TEST(Distributed, SpoolBreaksLeaseOfDeadHolderAtOnce) {
  const SweepManifest manifest = tinyManifest();
  const Reference reference = engineReference(manifest);
  const std::string storeDir = tempStore("spool_dead_holder");
  spoolInit(manifest, storeDir);
  // A worker on this host was kill -9'd while holding job 1.
  writeLease(storeDir, 1, thisHost(), reapedPid());

  // Default lease timeout: only the holder check can free job 1 in time.
  SpoolWorkerOptions options;
  options.storeDir = storeDir;
  options.quiet = true;
  SpoolReport report;
  std::atomic<bool> finished{false};
  std::thread worker([&] {
    report = runSpoolWorker(options);
    finished = true;
  });
  for (int i = 0; i < 400 && !finished; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  const bool brokeAtOnce = finished;
  if (!brokeAtOnce) FragmentStore(storeDir).releaseLease(1);  // unblock the worker
  worker.join();
  EXPECT_TRUE(brokeAtOnce) << "a dead holder's lease waited for the timeout";
  EXPECT_TRUE(report.allDone);
  EXPECT_EQ(report.completed, 4u);

  const Reference merged = mergedStore(storeDir, manifest);
  EXPECT_EQ(merged.jsonl, reference.jsonl);
  EXPECT_EQ(merged.csv, reference.csv);
  EXPECT_EQ(merged.trace, reference.trace);
}

TEST(Distributed, SpoolKeepsLeasesOfLiveOrRemoteHolders) {
  const SweepManifest manifest = tinyManifest();
  const Reference reference = engineReference(manifest);
  const std::uint64_t sweepFp = sweepFingerprint(encodeManifest(manifest));
  const std::string storeDir = tempStore("spool_live_holder");
  spoolInit(manifest, storeDir);
  // Job 1 is held by a live process on this host (this one). Job 2 is held
  // by a pid on another host, which cannot be checked from here, so only
  // the age rule may break it.
  writeLease(storeDir, 1, thisHost(), ::getpid());
  writeLease(storeDir, 2, "other-host.invalid", reapedPid());

  SpoolWorkerOptions options;
  options.storeDir = storeDir;
  options.quiet = true;
  SpoolReport report;
  std::thread worker([&] { report = runSpoolWorker(options); });

  // The worker finishes the two free jobs, then can only wait.
  const FragmentStore store(storeDir);
  for (int i = 0; i < 400 && store.scan(sweepFp, false).valid.size() < 2; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  std::this_thread::sleep_for(std::chrono::milliseconds(350));  // several passes
  EXPECT_EQ(store.scan(sweepFp, false).valid.size(), 2u);
  EXPECT_FALSE(store.hasFragment(1));
  EXPECT_FALSE(store.hasFragment(2));
  EXPECT_TRUE(store.leaseAge(1).has_value());
  EXPECT_TRUE(store.leaseAge(2).has_value());

  // The holders let go; the waiting worker picks both jobs up.
  store.releaseLease(1);
  store.releaseLease(2);
  worker.join();
  EXPECT_TRUE(report.allDone);
  EXPECT_EQ(report.completed, 4u);

  const Reference merged = mergedStore(storeDir, manifest);
  EXPECT_EQ(merged.jsonl, reference.jsonl);
  EXPECT_EQ(merged.csv, reference.csv);
  EXPECT_EQ(merged.trace, reference.trace);
}

}  // namespace
}  // namespace dtncache::sweep
