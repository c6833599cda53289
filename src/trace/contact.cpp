#include "trace/contact.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/assert.hpp"

namespace dtncache::trace {

ContactTrace::ContactTrace(std::size_t nodeCount, std::vector<Contact> contacts)
    : nodeCount_(nodeCount), contacts_(std::move(contacts)) {
  for (auto& c : contacts_) {
    DTNCACHE_CHECK_MSG(c.a < nodeCount_ && c.b < nodeCount_,
                       "contact endpoint out of range: " << c.a << "," << c.b);
    DTNCACHE_CHECK_MSG(c.a != c.b, "self-contact at node " << c.a);
    DTNCACHE_CHECK(c.start >= 0.0 && c.duration >= 0.0);
    if (c.a > c.b) std::swap(c.a, c.b);
  }
  // Traces are kept whole for a run (and memoized across runs), so they
  // hold no growth slack.
  contacts_.shrink_to_fit();
  std::stable_sort(contacts_.begin(), contacts_.end(),
                   [](const Contact& x, const Contact& y) { return x.start < y.start; });
}

sim::SimTime ContactTrace::duration() const {
  sim::SimTime end = 0.0;
  for (const auto& c : contacts_) end = std::max(end, c.end());
  return end;
}

TraceStats ContactTrace::stats() const {
  TraceStats s;
  s.nodeCount = nodeCount_;
  s.contactCount = contacts_.size();
  s.duration = duration();

  // Flat-keyed counting: one hash per contact instead of a tree walk. The
  // rate sum below still runs in sorted-pair order (packed keys order like
  // (a, b) tuples) so the floating-point accumulation matches the old
  // std::map traversal bit for bit.
  std::unordered_map<std::uint64_t, std::size_t> perPair;
  double durSum = 0.0;
  for (const auto& c : contacts_) {
    ++perPair[pairKey(c.a, c.b)];
    durSum += c.duration;
  }
  s.pairsThatMet = perPair.size();
  if (!contacts_.empty()) s.meanContactDuration = durSum / static_cast<double>(contacts_.size());
  if (s.duration > 0.0 && s.pairsThatMet > 0) {
    std::vector<std::uint64_t> keys;
    keys.reserve(perPair.size());
    for (const auto& [key, count] : perPair) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    double rateSum = 0.0;
    for (const std::uint64_t key : keys)
      rateSum += static_cast<double>(perPair[key]) / s.duration;
    s.meanPairwiseRate = rateSum / static_cast<double>(s.pairsThatMet);
    const auto totalPairs = static_cast<double>(nodeCount_ * (nodeCount_ - 1) / 2);
    s.meanContactsPerPairPerDay =
        static_cast<double>(s.contactCount) / totalPairs / sim::toDays(s.duration);
  }
  return s;
}

std::size_t ContactTrace::pairContactCount(NodeId i, NodeId j) const {
  if (i > j) std::swap(i, j);
  std::size_t n = 0;
  for (const auto& c : contacts_)
    if (c.a == i && c.b == j) ++n;
  return n;
}

double ContactTrace::pairRate(NodeId i, NodeId j) const {
  const sim::SimTime d = duration();
  if (d <= 0.0) return 0.0;
  return static_cast<double>(pairContactCount(i, j)) / d;
}

ContactTrace ContactTrace::truncated(sim::SimTime cutoff) const {
  std::vector<Contact> kept;
  for (const auto& c : contacts_)
    if (c.start < cutoff) kept.push_back(c);
  return ContactTrace(nodeCount_, std::move(kept));
}

ContactTrace ContactTrace::loadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw std::runtime_error("cannot open trace file " + path);
  return readCsv(in);
}

void ContactTrace::saveCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) throw std::runtime_error("cannot write trace file " + path);
  writeCsv(out);
}

ContactTrace ContactTrace::readCsv(std::istream& in) {
  std::string line;
  std::vector<Contact> contacts;
  std::size_t maxNode = 0;
  std::size_t lineNumber = 0;
  bool first = true;
  while (std::getline(in, line)) {
    ++lineNumber;
    if (line.empty()) continue;
    if (first) {  // skip header
      first = false;
      if (line.rfind("start", 0) == 0) continue;
    }
    std::istringstream ls(line);
    Contact c;
    char comma = 0;
    ls >> c.start >> comma >> c.duration >> comma >> c.a >> comma >> c.b;
    // Outside input: a plain error, not an invariant violation.
    if (ls.fail() || c.a == c.b || !(c.start >= 0.0 && c.duration >= 0.0))
      throw std::runtime_error("malformed trace line: " + line);
    const NodeId top = std::max(c.a, c.b);
    if (top >= kMaxTraceNodes)
      throw std::runtime_error("node id " + std::to_string(top) + " above the limit " +
                               std::to_string(kMaxTraceNodes - 1) + " on trace line " +
                               std::to_string(lineNumber) + ": " + line);
    contacts.push_back(c);
    maxNode = std::max<std::size_t>(maxNode, top);
  }
  return ContactTrace(maxNode + 1, std::move(contacts));
}

void ContactTrace::writeCsv(std::ostream& out) const {
  out << "start,duration,a,b\n";
  for (const auto& c : contacts_)
    out << c.start << ',' << c.duration << ',' << c.a << ',' << c.b << '\n';
}

}  // namespace dtncache::trace
