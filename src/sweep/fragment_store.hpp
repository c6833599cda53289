#pragma once

/// \file fragment_store.hpp
/// Content-addressed, CRC-guarded result fragments — the sweep checkpoint.
///
/// Every completed work unit becomes one fragment: the job's rendered
/// JSONL line, CSV header + row, and optional trace slice, framed with the
/// same guard discipline as peer::DiskStore's log (core/crc32.hpp): a
/// fixed header carrying the job index and the sweep/config fingerprints,
/// then `bodyLen | bodyCrc | body`. A torn write, a truncated file, or a
/// flipped bit fails the CRC (or the header sanity checks) and the
/// fragment simply does not count — resume re-queues the unit.
///
/// Fragments live in `<store>/frags/job-<index>-<bodycrc>.frag` and are
/// written via temp-file + rename, so a reader never sees a half fragment
/// under its final name. Because job output is deterministic, two workers
/// racing on the same unit produce byte-identical fragments with the same
/// name — duplicate completion is idempotent by construction.
///
/// The store root also holds `manifest.txt` (the sweep's identity, see
/// work_unit.hpp), `status.jsonl` (a counters line the trace tooling can
/// read), and `lease-<index>` files used by spool workers: O_EXCL creation
/// is lease acquisition, the body names the holder as `<hostname> <pid>`,
/// and the mtime gives the lease's age.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dtncache::sweep {

/// One decoded fragment.
struct Fragment {
  std::uint64_t jobIndex = 0;
  std::uint64_t sweepFp = 0;   ///< sweepFingerprint of the owning sweep
  std::uint64_t configFp = 0;  ///< configFingerprintU64 of the job's config
  std::string jsonl;           ///< rendered JSONL record, trailing newline
  std::string csvHeader;       ///< rendered CSV header line
  std::string csvRow;          ///< rendered CSV row
  std::string trace;           ///< merged-trace slice ("" when tracing is off)
};

/// Serialize with header + CRC guard. Deterministic: same fragment, same
/// bytes.
std::vector<std::uint8_t> encodeFragment(const Fragment& fragment);

/// Strict parse: header sanity, exact length, CRC. Returns false (without
/// touching `out`) on any corruption — torn tails and bit flips included.
bool decodeFragment(const std::uint8_t* data, std::size_t size, Fragment* out);

class FragmentStore {
 public:
  /// Opens (creating if needed) `dir` and `dir`/frags. Throws on failure.
  explicit FragmentStore(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Atomically write `text` to `<dir>/<name>` (temp + rename).
  void writeFile(const std::string& name, const std::string& text) const;

  /// Contents of `<dir>/<name>`, or nullopt if absent/unreadable.
  std::optional<std::string> readFile(const std::string& name) const;

  /// Write a fragment (temp + rename). Returns the final path.
  std::string put(const Fragment& fragment) const;

  struct ScanResult {
    /// Valid fragments of this sweep: job index -> file path. With
    /// duplicates (same index twice), the lexicographically first path wins.
    std::map<std::uint64_t, std::string> valid;
    std::size_t invalid = 0;  ///< corrupt/foreign files seen (and dropped)
  };

  /// Walk the fragment directory, fully validating every `*.frag` file.
  /// Corrupt or foreign-sweep files are counted and, with `dropInvalid`,
  /// unlinked so a re-run rewrites them cleanly.
  ScanResult scan(std::uint64_t sweepFp, bool dropInvalid) const;

  /// Re-read and decode one fragment file. nullopt if it fails validation.
  std::optional<Fragment> read(const std::string& path) const;

  /// Any `job-<index>-*.frag` file present (no validation — existence only).
  /// Spool workers re-check this after acquiring a lease: a writer releases
  /// its lease only after the fragment rename, so lease-then-check cannot
  /// miss a completed unit.
  bool hasFragment(std::uint64_t index) const;

  // -- spool leases -----------------------------------------------------------

  /// O_EXCL-create `<dir>/lease-<index>` holding `<hostname> <pid>\n`. True
  /// if this process now holds the lease.
  bool tryLease(std::uint64_t index) const;

  /// Age of the lease file in seconds (mtime-based); nullopt if absent.
  std::optional<double> leaseAge(std::uint64_t index) const;

  /// True when the lease names a process on this host that no longer exists
  /// (`kill(pid, 0)` fails with ESRCH). False for a live holder, a holder on
  /// another host, an unreadable or half-written lease, or no lease.
  bool leaseHolderGone(std::uint64_t index) const;

  /// Remove the lease marker (idempotent).
  void releaseLease(std::uint64_t index) const;

 private:
  std::string fragDir() const { return dir_ + "/frags"; }
  std::string leasePath(std::uint64_t index) const;

  std::string dir_;
};

/// Assemble a complete fragment set into final outputs, strictly in
/// job-index order: JSONL lines concatenated, the CSV header (verified
/// identical across fragments) followed by rows, trace slices concatenated.
/// `units` comes from the locally expanded manifest; every unit must have a
/// valid fragment whose config fingerprint matches, or the merge throws
/// with the missing/mismatched indices. Null streams skip that output.
struct WorkUnit;
void mergeFragments(const FragmentStore& store, std::uint64_t sweepFp,
                    const std::vector<WorkUnit>& units, std::ostream* jsonl,
                    std::ostream* csv, std::ostream* trace);

}  // namespace dtncache::sweep
