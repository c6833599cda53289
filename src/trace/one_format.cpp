#include "trace/one_format.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>


namespace dtncache::trace {

OneImportResult loadOneConnectivity(std::istream& in) {
  OneImportResult result;
  std::unordered_map<std::string, NodeId> ids;
  std::vector<Contact> contacts;
  std::unordered_map<std::uint64_t, sim::SimTime> open;  // pair -> up time

  std::string line;
  std::size_t lineNumber = 0;
  auto reject = [&](const std::string& what) {  // outside input: name the line
    throw std::runtime_error(what + " on ONE trace line " + std::to_string(lineNumber) +
                             ": " + line);
  };
  auto idOf = [&](const std::string& host) {
    const auto [it, inserted] = ids.emplace(host, static_cast<NodeId>(ids.size()));
    if (inserted && it->second >= kMaxTraceNodes)
      reject("more than " + std::to_string(kMaxTraceNodes) + " hosts");
    if (inserted) result.hostNames.push_back(host);
    return it->second;
  };

  sim::SimTime lastTime = 0.0;
  while (std::getline(in, line)) {
    ++lineNumber;
    if (line.empty()) continue;
    std::istringstream ls(line);
    double time = 0.0;
    std::string kind, h1, h2, state;
    if (!(ls >> time >> kind >> h1 >> h2 >> state)) {
      ++result.ignoredLines;
      continue;
    }
    if (kind != "CONN") {
      ++result.ignoredLines;
      continue;
    }
    if (!(time >= 0.0)) reject("negative timestamp");
    lastTime = std::max(lastTime, time);
    const NodeId a = idOf(h1);
    const NodeId b = idOf(h2);
    if (a == b) {
      ++result.ignoredLines;  // self-connection artifacts exist in the wild
      continue;
    }
    const std::uint64_t key = pairKey(a, b);
    if (state == "up") {
      // A re-`up` of an already-open pair restarts the contact; close the
      // previous one at the new up time (zero loss of connected time).
      if (const auto it = open.find(key); it != open.end()) {
        contacts.push_back({it->second, time - it->second, a, b});
        it->second = time;
      } else {
        open.emplace(key, time);
      }
    } else if (state == "down") {
      const auto it = open.find(key);
      if (it == open.end()) {
        ++result.unmatchedDowns;
        continue;
      }
      contacts.push_back({it->second, time - it->second, a, b});
      open.erase(it);
    } else {
      ++result.ignoredLines;
    }
  }

  for (const auto& [key, start] : open) {
    const auto a = static_cast<NodeId>(key >> 32);
    const auto b = static_cast<NodeId>(key & 0xffffffff);
    contacts.push_back({start, std::max(0.0, lastTime - start), a, b});
    ++result.unterminatedUps;
  }

  result.trace = ContactTrace(ids.size(), std::move(contacts));
  return result;
}

OneImportResult loadOneConnectivityFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw std::runtime_error("cannot open ONE trace file " + path);
  return loadOneConnectivity(in);
}

}  // namespace dtncache::trace
