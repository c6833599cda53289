#pragma once

/// \file contact.hpp
/// Contact events and contact traces.
///
/// A contact trace is the ground truth a trace-driven DTN simulation runs
/// on: a time-ordered list of pairwise node encounters, each with a start
/// time and a duration. Traces come from a synthetic generator (trace/
/// generators.hpp) or from a CSV file in the simple
/// `start,duration,node_a,node_b` format, so real traces (Reality,
/// Infocom'06) can be dropped in when available.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/pair_key.hpp"
#include "sim/time.hpp"

namespace dtncache {

/// Dense node identifier in [0, nodeCount).
using NodeId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

}  // namespace dtncache

namespace dtncache::trace {

/// Packed symmetric pair key: min(a,b) in the high word. Hashes in one op
/// and sorts exactly like the (min, max) tuple, so open-addressed maps
/// keyed by it can be drained in deterministic pair order by sorting the
/// keys. The packing itself lives in core/pair_key.hpp, shared with every
/// other layer that flat-keys id pairs (estimator pair table, cooperative
/// cache reply dedup).
inline std::uint64_t pairKey(NodeId a, NodeId b) { return core::packSymmetricPair(a, b); }

/// One pairwise encounter. `a < b` is normalized on insertion.
struct Contact {
  sim::SimTime start = 0.0;
  sim::SimTime duration = 0.0;
  NodeId a = 0;
  NodeId b = 0;

  sim::SimTime end() const { return start + duration; }
  bool involves(NodeId n) const { return a == n || b == n; }
  NodeId peerOf(NodeId n) const { return a == n ? b : a; }
};

/// Aggregate statistics of a trace (the T1 "trace characteristics" table).
struct TraceStats {
  std::size_t nodeCount = 0;
  std::size_t contactCount = 0;
  sim::SimTime duration = 0.0;
  double meanContactsPerPairPerDay = 0.0;
  double meanContactDuration = 0.0;
  double meanPairwiseRate = 0.0;    ///< contacts per second, over pairs that met
  std::size_t pairsThatMet = 0;
};

/// An immutable, time-sorted contact trace.
class ContactTrace {
 public:
  ContactTrace() = default;

  /// Build from an arbitrary-order contact list; normalizes endpoints and
  /// sorts by start time. `nodeCount` must exceed every endpoint id.
  ContactTrace(std::size_t nodeCount, std::vector<Contact> contacts);

  std::size_t nodeCount() const { return nodeCount_; }
  const std::vector<Contact>& contacts() const { return contacts_; }
  bool empty() const { return contacts_.empty(); }

  /// End time of the last contact (0 for an empty trace).
  sim::SimTime duration() const;

  TraceStats stats() const;

  /// Number of contacts between the pair (i, j).
  std::size_t pairContactCount(NodeId i, NodeId j) const;

  /// Empirical contact rate of pair (i, j): contacts / trace duration.
  double pairRate(NodeId i, NodeId j) const;

  /// Keep only contacts with start < cutoff.
  ContactTrace truncated(sim::SimTime cutoff) const;

  /// CSV round-trip. Format: header line then `start,duration,a,b` rows.
  static ContactTrace loadCsv(const std::string& path);
  void saveCsv(const std::string& path) const;
  static ContactTrace readCsv(std::istream& in);
  void writeCsv(std::ostream& out) const;

 private:
  std::size_t nodeCount_ = 0;
  std::vector<Contact> contacts_;
};

}  // namespace dtncache::trace
