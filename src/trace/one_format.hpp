#pragma once

/// \file one_format.hpp
/// Import connectivity traces in the ONE simulator's event format.
///
/// The ONE (Opportunistic Network Environment) simulator is the de-facto
/// standard DTN research tool, and most public contact datasets (Haggle /
/// Reality exports on CRAWDAD) circulate in its connectivity-event format:
///
///     <time> CONN <host1> <host2> up
///     <time> CONN <host1> <host2> down
///
/// Host names may be arbitrary tokens ("n12", "34"); they are mapped to
/// dense NodeIds in first-appearance order. An `up` without a matching
/// `down` is closed at the end of the trace; a `down` without a prior `up`
/// is counted and skipped (these occur in truncated exports). Non-CONN
/// lines (the format interleaves message events) are ignored.

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/contact.hpp"

namespace dtncache::trace {

struct OneImportResult {
  ContactTrace trace;
  /// Original host token for each dense NodeId.
  std::vector<std::string> hostNames;
  std::size_t unmatchedDowns = 0;   ///< `down` with no open `up`
  std::size_t unterminatedUps = 0;  ///< `up` closed at trace end
  std::size_t ignoredLines = 0;     ///< non-CONN events
};

OneImportResult loadOneConnectivity(std::istream& in);
/// Throws std::runtime_error when `path` cannot be opened.
OneImportResult loadOneConnectivityFile(const std::string& path);

}  // namespace dtncache::trace
