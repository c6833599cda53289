#pragma once

/// \file distributed.hpp
/// The distributed sweep over a shared directory (the "spool"): any number
/// of worker processes, on any hosts that mount the store, lease work units
/// through `lease-<index>` files and write fragments into one
/// FragmentStore. However the jobs ran — one process, many processes, many
/// hosts, crashed and resumed — the merge pass produces bytes identical to
/// a single-process `--jobs N` sweep.
///
/// There is no coordinator and no wire protocol: the store is the only
/// shared state. `spoolInit` writes the manifest; each worker re-expands
/// the grid from it, and the merge checks every fragment's config
/// fingerprint against its own expansion, so a worker that expands a
/// different grid (version skew) cannot slip a wrong row into the output.
/// A store is always resumable: a worker started against a
/// half-finished store runs only the units that still lack a valid
/// fragment, and the scan drops torn or bit-flipped fragments so their
/// units run again.

#include <cstdint>
#include <string>

#include "sweep/fragment_store.hpp"
#include "sweep/work_unit.hpp"

namespace dtncache::sweep {

/// Run one work unit exactly as SweepEngine would — same tracer labeling,
/// same job start/done events, same field rendering — and package the
/// result as a fragment. The cornerstone of the byte-identity guarantee:
/// a fragment's sections are the very strings the single-process sinks
/// would have streamed for this job.
Fragment runWorkUnitFragment(const SweepManifest& manifest, std::uint64_t sweepFp,
                             const SweepJob& job);

struct SpoolWorkerOptions {
  std::string storeDir;
  /// Age at which any lease file is broken. A lease whose holder is a
  /// process on this host that no longer exists is broken at once.
  double leaseTimeout = 600.0;
  bool quiet = false;
  /// Test hook simulating `kill -9`: after this many completions the worker
  /// acquires one more lease and returns without running or releasing it
  /// (0 = run to completion).
  std::size_t crashAfter = 0;
};

struct SpoolReport {
  std::size_t completed = 0;
  bool allDone = false;  ///< every unit had a fragment when we left
  std::size_t scans = 0;  ///< store scans made (one per pass of the lease loop)
};

/// Lease-loop over `<store>/lease-*` files: pick an unleased incomplete
/// unit, run it, write the fragment, release. A lease is broken when it is
/// older than leaseTimeout or names a dead process on this host. Returns
/// when the store is complete (or the crash hook fired).
SpoolReport runSpoolWorker(const SpoolWorkerOptions& options);

/// Initialize a spool store: write the manifest and a status line carrying
/// `sweep.jobs_total`, so workers and the progress tooling can start.
/// Returns the job count.
std::size_t spoolInit(const SweepManifest& manifest, const std::string& storeDir);

}  // namespace dtncache::sweep
