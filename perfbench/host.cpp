#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.hpp"

namespace perfbench {
namespace {

double peakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would include the launching script's footprint.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double processCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// /proc/stat aggregate jiffies (total, steal); zeros when unreadable.
struct CpuJiffies {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

CpuJiffies readCpuJiffies() {
  CpuJiffies out;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return out;
  // user nice system idle iowait irq softirq steal (guest fields are
  // already counted in user/nice).
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) return CpuJiffies{};
    out.total += v;
    if (i == 7) out.steal = v;
  }
  return out;
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

LatencySummary summarizeLatency(const std::vector<std::vector<double>>& latencyByOp,
                                double timedSeconds) {
  // Quantiles are taken per distinct op and averaged over the op list: ops
  // on different seeds differ in cost, and a pooled quantile would follow
  // whichever seed is cheapest or sit between them.
  LatencySummary out;
  out.seconds = timedSeconds;
  std::vector<double> all;
  std::size_t groups = 0;
  for (const auto& samples : latencyByOp) {
    if (samples.empty()) continue;
    all.insert(all.end(), samples.begin(), samples.end());
    out.min += *std::min_element(samples.begin(), samples.end());
    out.p10 += percentile(samples, 10.0);
    out.p25 += percentile(samples, 25.0);
    out.p50 += median(samples);
    ++groups;
  }
  if (groups > 0) {
    out.min /= static_cast<double>(groups);
    out.p10 /= static_cast<double>(groups);
    out.p25 /= static_cast<double>(groups);
    out.p50 /= static_cast<double>(groups);
  }
  out.ops = all.size();
  // A percentile is reported only with at least ten samples beyond it.
  if (all.size() >= 100) out.p90 = percentile(all, 90.0);
  return out;
}

void reportEndToEnd(RunResult& result, const std::vector<double>& setupSeconds,
                    const std::vector<std::vector<double>>& latencyByOp, double timedSeconds) {
  const LatencySummary latency = summarizeLatency(latencyByOp, timedSeconds);
  result.set("setup_s", median(setupSeconds), "s");
  result.set("latency_ms_p50", latency.p50, "ms");
  result.set("throughput_per_s", latency.throughput(), "1/s");
  result.set("peak_rss_mb", peakRssMb(), "MiB");

  std::ostringstream line;
  line << "latency: " << latency.ops << " ops in " << timedSeconds << " s ("
       << latency.throughput() << " ops/s); per op min " << latency.min << " ms, p10 "
       << latency.p10 << " ms, p25 " << latency.p25 << " ms, p50 " << latency.p50 << " ms";
  if (latency.p90 > 0.0)
    line << ", pooled p90 " << latency.p90 << " ms";
  else
    line << ", p90 not reported (needs >= 100 ops)";
  line << "; setup passes " << setupSeconds.size() << ", median " << median(setupSeconds)
       << " s";
  result.notes.push_back(line.str());
}

void reportOpLayers(RunResult& result, const LatencySummary& latency) {
  result.set("op.latency_ms_min", latency.min, "ms");
  result.set("op.latency_ms_p90", latency.p90, "ms");
}

HostProbe::HostProbe() : wallStart_(Clock::now()), cpuStart_(processCpuSeconds()) {
  const CpuJiffies jiffies = readCpuJiffies();
  jiffiesTotal_ = jiffies.total;
  jiffiesSteal_ = jiffies.steal;
}

void HostProbe::report(RunResult& result, bool asMetrics) const {
  const double wall = secondsSince(wallStart_);
  const double cpu = processCpuSeconds() - cpuStart_;
  const CpuJiffies now = readCpuJiffies();
  const std::uint64_t total = now.total - jiffiesTotal_;
  const std::uint64_t steal = now.steal - jiffiesSteal_;
  const double stealRatio =
      total > 0 ? static_cast<double>(steal) / static_cast<double>(total) : 0.0;
  const double cpuWall = wall > 0.0 ? cpu / wall : 0.0;
  std::ostringstream line;
  line << "host diagnostics (reported only): host.steal_ratio " << stealRatio
       << ", host.cpu_wall_ratio " << cpuWall;
  result.notes.push_back(line.str());
  if (!asMetrics) return;
  result.set("host.steal_ratio", stealRatio, "ratio");
  result.set("host.cpu_wall_ratio", cpuWall, "ratio");
}

namespace {

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

}  // namespace

bool releaseBuild() {
#ifdef NDEBUG
  return std::string(PERFBENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

std::string hostStampJson() {
  const char* rev = std::getenv("PERFBENCH_SOURCE_REV");
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": \"" << jsonEscape(cpuModel()) << "\""
      << ", \"compiler\": \"" << jsonEscape(PERFBENCH_COMPILER) << "\""
      << ", \"build_type\": \"" << jsonEscape(PERFBENCH_BUILD_TYPE) << "\""
      << ", \"source_rev\": \"" << jsonEscape(rev != nullptr ? rev : "unknown") << "\"}";
  return out.str();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

const std::vector<std::pair<std::string, std::string>>& perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"op.latency_ms_min", "ms"},
      {"op.latency_ms_p90", "ms"},
      {"trace.generate_ms", "ms"},
      {"trace.contacts", "count"},
      {"trace.warmup_contacts", "count"},
      {"trace.estimator_warmup_ms", "ms"},
      {"cache.select_ncls_ms", "ms"},
      {"cache.push.delivered", "count/op"},
      {"cache.push.noop", "count/op"},
      {"cache.push.denied", "count/op"},
      {"cache.push.useful_ratio", "ratio"},
      {"cache.install.upgraded", "count/op"},
      {"cache.query.sprayed", "count/op"},
      {"cache.reply.delivered", "count/op"},
      {"net.replay_ms", "ms"},
      {"net.contact.delivered", "count/op"},
      {"sim.events", "count/op"},
      {"sim.peak_pending", "count"},
      {"sim.events_per_s", "1/s"},
      {"core.maintenance_ms", "ms"},
      {"core.maintenance_share", "ratio"},
      {"core.maintenance.runs", "count/op"},
      {"core.maintenance.dirty_pairs", "count/op"},
      {"core.maintenance.skipped", "count/op"},
      {"core.plan.cache_hits", "count/op"},
      {"core.plan.helpers", "count/op"},
      {"core.plan.reuse_ratio", "ratio"},
      {"core.predicted_p_mean", "ratio"},
      {"runner.experiment_ms", "ms"},
      {"runner.experiment_ms.Hierarchical", "ms"},
      {"runner.experiment_ms.NoRefresh", "ms"},
      {"runner.experiment_ms.SourceDirect", "ms"},
      {"runner.experiment_ms.Pull", "ms"},
      {"runner.experiment_ms.Invalidation", "ms"},
      {"runner.experiment_ms.Epidemic", "ms"},
      {"runner.experiment_ms.Flooding", "ms"},
      {"runner.start_ms", "ms"},
      {"runner.run_ms", "ms"},
      {"runner.assembly_ms", "ms"},
      {"runner.shard.shards", "count"},
      {"runner.shard.boring_fraction", "ratio"},
      {"runner.shard.stolen_fraction", "ratio"},
      {"runner.shard.barrier_waits", "count/op"},
      {"runner.shard.speedup", "ratio"},
      {"sweep.run_ms", "ms"},
      {"sweep.overhead_ms", "ms"},
      {"sweep.sink_ms", "ms"},
      {"sweep.sink_bytes", "bytes/op"},
      {"peer.start_ms", "ms"},
      {"peer.frame_codec_us", "us"},
      {"peer.push.sent", "count"},
      {"peer.push.installed", "count"},
      {"peer.net.sessions", "count"},
      {"peer.net.reconnects", "count"},
      {"peer.net.frames_rejected", "count"},
      {"peer.store.compactions", "count"},
      {"peer.loop_busy_ratio", "ratio"},
      {"peer.bump_lateness_ms_p90", "ms"},
      {"obs.span_overhead_ratio", "ratio"},
      {"obs.tracer_events", "count"},
      {"obs.tracer_overhead_ratio", "ratio"},
      {"host.steal_ratio", "ratio"},
      {"host.cpu_wall_ratio", "ratio"},
  };
  return kMetrics;
}

}  // namespace perfbench
