#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common.hpp"

namespace perfbench {

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

std::size_t SpanRecorder::begin(const std::string& name, std::size_t parent,
                                std::uint64_t opId) {
  spans_.push_back(Span{name, now(), -1.0, parent, opId, false});
  syntheticCursor_.push_back(spans_.back().start);
  return spans_.size() - 1;
}

void SpanRecorder::end(std::size_t span) { spans_[span].end = now(); }

std::size_t SpanRecorder::addSynthetic(const std::string& name, std::size_t parent,
                                       double seconds) {
  const double start = syntheticCursor_[parent];
  syntheticCursor_[parent] = start + seconds;
  spans_.push_back(Span{name, start, start + seconds, parent, spans_[parent].opId, true});
  syntheticCursor_.push_back(start);
  return spans_.size() - 1;
}

std::size_t SpanRecorder::addInterval(const std::string& name, std::size_t parent,
                                      std::uint64_t opId, double start, double end) {
  spans_.push_back(Span{name, start, end, parent, opId, false});
  syntheticCursor_.push_back(start);
  return spans_.size() - 1;
}

void SpanRecorder::writeJsonl(const std::string& path) const {
  std::ofstream out(path);
  out << std::setprecision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"start\": " << s.start
        << ", \"end\": " << s.end << ", \"parent\": ";
    if (s.parent == kNoParent)
      out << "null";
    else
      out << s.parent;
    out << ", \"op\": " << s.opId << ", \"synthetic\": " << (s.synthetic ? "true" : "false")
        << "}\n";
  }
}

std::map<std::string, SpanRecorder::SelfTime> SpanRecorder::selfTimes() const {
  std::vector<double> childTotal(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent != kNoParent) childTotal[s.parent] += std::max(0.0, s.end - s.start);
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SelfTime& t = out[spans_[i].name];
    const double d = std::max(0.0, spans_[i].end - spans_[i].start);
    t.total += d;
    t.self += std::max(0.0, d - childTotal[i]);
    ++t.count;
  }
  return out;
}

void reportSpans(RunResult& result, const SpanRecorder& spans, const Options& options) {
  std::filesystem::create_directories(options.outDir);
  const std::string path = options.outDir + "/spans-" + options.workload + "-" +
                           std::to_string(options.seed) + ".jsonl";
  spans.writeJsonl(path);
  result.notes.push_back("spans written to " + path);
  for (const auto& [name, t] : spans.selfTimes()) {
    std::ostringstream line;
    line << std::fixed << std::setprecision(3) << "span " << std::left << std::setw(34)
         << name << " n " << std::setw(6) << t.count << " total_ms " << std::setw(12)
         << 1e3 * t.total << " self_ms " << std::setw(12) << 1e3 * t.self << " self_ms/span "
         << 1e3 * t.self / static_cast<double>(std::max<std::size_t>(1, t.count));
    result.notes.push_back(line.str());
  }
}

}  // namespace perfbench
