/// \file peerd_workload.cpp
/// peerd-fleet: three Peerd daemons share one EventLoop (one thread) over
/// loopback TCP, with disk stores in a fresh directory and query probes on.
///
/// This is an open loop: each daemon sources one item and bumps it on its
/// own fixed timer whatever the fleet's state. An op is one (item, version,
/// non-source peer) install. Its latency runs from when the bump was due
/// (the previous bump of that item plus the bump interval) to the install
/// event, both read from the daemons' obs::Tracer timestamps on the shared
/// loop clock, so a stalled timer counts against every op it delays.

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>

#include "common.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "peer/event_loop.hpp"
#include "peer/peerd.hpp"
#include "peer/wire.hpp"
#include "sweep/sweep_engine.hpp"

namespace perfbench {
namespace {

using namespace dtncache;

constexpr std::uint32_t kNodes = 3;
constexpr std::uint32_t kItems = 3;  // item i is sourced by node i % kNodes
/// Bump period of each node's item. The periods differ slightly so the
/// three timer chains' relative phase sweeps through every value many times
/// in a run; with equal periods the phase stays wherever start-up left it,
/// and the millisecond rounding of the loop's poll timeout then sets a
/// different lateness in every run.
constexpr double kBumpInterval[kNodes] = {0.0100, 0.0103, 0.0107};
constexpr std::uint32_t kPayloadBytes = 64;
constexpr std::size_t kSetupPasses = 15;
constexpr double kDrainDeadline = 5.0;
/// Check period of the timed phase and the drain after the first check.
constexpr double kCoarsePoll = 0.1;

/// Pinned daemon config; `peers` and `storePath` are filled per fleet.
peer::PeerdConfig fleetConfig(NodeId node) {
  peer::PeerdConfig c;
  c.node = node;
  c.nodeCount = kNodes;
  c.itemCount = kItems;
  c.listenPort = 0;
  c.memoryCapacityBytes = 16 * 1024 * 1024;
  c.compactThresholdBytes = 4 * 1024 * 1024;
  c.vvIntervalSeconds = 0.25;
  c.maintenanceIntervalSeconds = 1.0;
  c.bumpIntervalSeconds = kBumpInterval[node];
  c.payloadBytes = kPayloadBytes;
  c.queryIntervalSeconds = 0.05;
  c.tauSeconds = 10.0;
  c.fanoutBound = 3;
  c.priorRate = 0.05;
  c.pushPolicy = peer::PushPolicy::kHierarchy;
  c.helloTimeoutSeconds = 5.0;
  c.idleTimeoutSeconds = 30.0;
  c.reconnectBaseSeconds = 0.02;
  c.reconnectMaxSeconds = 0.2;
  c.runSeconds = 0.0;
  return c;
}

/// Run the loop until `done` holds or the deadline passes, checking first
/// after `firstCheck` seconds and then every `period` seconds. Returns
/// whether it held. The check is a timer on the daemons' own loop, so the
/// timed phase checks only once near its expected end and then coarsely:
/// a frequent harness timer would shift the bump timers it measures.
bool runUntil(peer::EventLoop& loop, const std::function<bool()>& done, double deadline,
              double firstCheck, double period) {
  if (done()) return true;
  const double start = loop.now();
  std::function<void()> poll = [&] {
    if (done() || loop.now() - start > deadline) {
      loop.stop();
      return;
    }
    loop.runAfter(period, poll);
  };
  loop.runAfter(firstCheck, poll);
  loop.run();
  return done();
}

/// One fleet: its loop, tracers, registry and daemons. Members are declared
/// so the daemons are destroyed first, while everything they use is alive.
struct Fleet {
  std::string dir;
  std::unique_ptr<peer::EventLoop> loop = std::make_unique<peer::EventLoop>();
  obs::Registry registry;
  std::vector<std::unique_ptr<obs::Tracer>> tracers;
  std::vector<std::unique_ptr<peer::Peerd>> daemons;
  double establishedAt = 0.0;  ///< loop clock
  std::vector<double> startSeconds;

  ~Fleet() {
    daemons.clear();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  bool meshEstablished() const {
    for (const auto& d : daemons)
      if (d->establishedCount() != kNodes - 1) return false;
    return true;
  }
};

/// Versions each source produces in a timed phase of `seconds`.
std::uint32_t bumpLimitOf(NodeId node, double seconds) {
  return static_cast<std::uint32_t>(std::lround(seconds / kBumpInterval[node]));
}

/// Build a fleet and run it until every session of the mesh is established.
/// The hub (the daemon every other one dials) rotates with the seed.
std::unique_ptr<Fleet> startFleet(const Options& options, std::uint64_t seed, std::size_t index,
                                  double seconds, SpanRecorder* spans,
                                  std::size_t parentSpan, double& setupSeconds) {
  auto fleet = std::make_unique<Fleet>();
  fleet->dir = options.outDir + "/peerd-" + std::to_string(::getpid()) + "-" +
               std::to_string(index);
  std::filesystem::remove_all(fleet->dir);
  std::filesystem::create_directories(fleet->dir);

  const auto start = Clock::now();
  std::string peers;
  for (std::uint32_t k = 0; k < kNodes; ++k) {
    const NodeId node = static_cast<NodeId>((seed + k) % kNodes);
    peer::PeerdConfig config = fleetConfig(node);
    config.peers = peers;
    config.bumpLimit = bumpLimitOf(node, seconds);
    config.storePath = fleet->dir + "/node" + std::to_string(node) + ".log";
    fleet->tracers.push_back(std::make_unique<obs::Tracer>(
        "node" + std::to_string(node),
        obs::kindBit(obs::EventKind::kVersionBump) | obs::kindBit(obs::EventKind::kInstall)));
    fleet->daemons.push_back(std::make_unique<peer::Peerd>(
        std::move(config), fleet->tracers.back().get(), &fleet->registry, fleet->loop.get()));
    ScopedSpan span(spans, "peer.start", parentSpan, index);
    const auto t0 = Clock::now();
    if (!fleet->daemons.back()->start())
      throw std::runtime_error("Peerd::start failed for node " + std::to_string(node));
    fleet->startSeconds.push_back(secondsSince(t0));
    if (!peers.empty()) peers += ',';
    peers += "127.0.0.1:" + std::to_string(fleet->daemons.back()->boundPort());
  }
  if (!runUntil(*fleet->loop, [&] { return fleet->meshEstablished(); }, 10.0, 0.001, 0.001))
    throw std::runtime_error("peer mesh did not establish within 10 s");
  setupSeconds = secondsSince(start);
  fleet->establishedAt = fleet->loop->now();
  return fleet;
}

// ---- trace parsing ----------------------------------------------------------------

/// Value of a numeric field in one tracer JSONL line; NaN when absent.
double numberField(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\": ";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nan("");
  return std::strtod(line.c_str() + pos + needle.size(), nullptr);
}

bool isKind(const std::string& line, const char* kind) {
  return line.find(std::string("\"kind\": \"") + kind + "\"") != std::string::npos;
}

struct FleetEvents {
  /// (item, version) → bump time
  std::map<std::pair<std::uint64_t, std::uint64_t>, double> bumps;
  /// (item, version, node) → install time (first install wins)
  std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>, double> installs;
  std::uint64_t events = 0;
};

FleetEvents parseEvents(const Fleet& fleet) {
  FleetEvents out;
  for (const auto& tracer : fleet.tracers) {
    std::istringstream in(tracer->buffer());
    std::string line;
    while (std::getline(in, line)) {
      ++out.events;
      const double t = numberField(line, "t");
      const auto item = static_cast<std::uint64_t>(numberField(line, "item"));
      const auto version = static_cast<std::uint64_t>(numberField(line, "version"));
      if (isKind(line, "version_bump")) {
        out.bumps.emplace(std::make_pair(item, version), t);
      } else if (isKind(line, "install")) {
        const auto at = static_cast<std::uint64_t>(numberField(line, "at"));
        out.installs.emplace(std::make_tuple(item, version, at), t);
      }
    }
  }
  return out;
}

/// Mean µs per push frame for the wire encode + decode of the pushes the
/// run carried (same items, versions and payload size).
double frameCodecMicros(const FleetEvents& events, RunResult& result) {
  const auto start = Clock::now();
  std::size_t frames = 0;
  for (const auto& [key, t] : events.bumps) {
    peer::RefreshPush push;
    push.item = static_cast<data::ItemId>(key.first);
    push.version = static_cast<data::Version>(key.second);
    push.payload.assign(kPayloadBytes, static_cast<std::uint8_t>(key.second));
    const std::vector<std::uint8_t> bytes = peer::encodeFrame(push);
    const peer::DecodeResult decoded = peer::decodeFrame(bytes.data(), bytes.size());
    const auto* back = decoded.status == peer::DecodeStatus::kFrame
                           ? std::get_if<peer::RefreshPush>(&*decoded.frame)
                           : nullptr;
    if (back == nullptr || back->version != push.version || back->payload != push.payload)
      result.fail("wire round trip changed a push frame");
    ++frames;
  }
  return frames == 0 ? 0.0 : 1e6 * secondsSince(start) / static_cast<double>(frames);
}

}  // namespace

RunResult runPeerdFleet(const Options& options) {
  RunResult result;
  const std::uint64_t seed = splitmix64(options.seed ^ 0x7065657264ULL);
  result.notes.push_back("peerd-fleet: " + std::to_string(kNodes) + " daemons, " +
                         std::to_string(kItems) + " items, hub node " +
                         std::to_string(seed % kNodes));
  for (NodeId node = 0; node < kNodes; ++node) {
    char fingerprint[17];
    std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                  static_cast<unsigned long long>(
                      sweep::fnv1a64(peer::dumpPeerConfigJson(fleetConfig(node)))));
    result.notes.push_back("node " + std::to_string(node) + ": bump every " +
                           std::to_string(1e3 * kBumpInterval[node]) +
                           " ms, config fingerprint " + fingerprint);
  }

  // Bumps stop by themselves after bumpLimitOf versions, which sets the
  // length of the timed phase.
  const double seconds = options.oneCycle ? 0.5 : options.seconds;

  SpanRecorder spanStore;
  SpanRecorder* spans = options.trace ? &spanStore : nullptr;
  const std::size_t setupSpan =
      spans != nullptr ? spans->begin("fleet.setup", SpanRecorder::kNoParent, 0)
                       : SpanRecorder::kNoParent;
  const std::size_t passes = options.oneCycle || options.trace ? 1 : kSetupPasses;
  std::vector<double> setupSeconds;
  std::unique_ptr<Fleet> fleet;
  for (std::size_t p = 0; p < passes; ++p) {
    fleet.reset();
    double s = 0.0;
    fleet = startFleet(options, seed, p, seconds, spans, setupSpan, s);
    setupSeconds.push_back(s);
  }
  if (spans != nullptr) spans->end(setupSpan);

  // Timed phase: until every source has produced its last version, then a
  // drain until every non-source peer holds it.
  HostProbe probe;
  const auto runSpan = spans != nullptr ? spans->begin("fleet.run", SpanRecorder::kNoParent, 0)
                                        : SpanRecorder::kNoParent;
  const auto allBumped = [&] {
    for (const auto& d : fleet->daemons)
      for (data::ItemId item = 0; item < kItems; ++item)
        if (d->sourceOf(item) == d->config().node &&
            d->heldVersion(item).value_or(0) < bumpLimitOf(d->config().node, seconds))
          return false;
    return true;
  };
  const auto allInstalled = [&] {
    for (const auto& d : fleet->daemons)
      for (data::ItemId item = 0; item < kItems; ++item)
        if (d->heldVersion(item).value_or(0) < bumpLimitOf(item % kNodes, seconds))
          return false;
    return true;
  };
  double bumpPhase = 0.0;
  for (NodeId node = 0; node < kNodes; ++node)
    bumpPhase = std::max(bumpPhase, bumpLimitOf(node, seconds) * kBumpInterval[node]);
  runUntil(*fleet->loop, allBumped, seconds * 2.0 + 10.0, bumpPhase + 0.01, kCoarsePoll);
  if (spans != nullptr) spans->end(runSpan);
  const auto drainSpan = spans != nullptr
                             ? spans->begin("fleet.drain", SpanRecorder::kNoParent, 0)
                             : SpanRecorder::kNoParent;
  const bool drained = runUntil(*fleet->loop, allInstalled, kDrainDeadline, 0.01, kCoarsePoll);
  if (spans != nullptr) spans->end(drainSpan);
  if (!drained) result.warnings.push_back("fleet did not drain within the deadline");
  probe.report(result, /*asMetrics=*/options.trace);

  // Ops: every (item, version, non-source peer) for versions bumped after
  // the mesh was established.
  const FleetEvents events = parseEvents(*fleet);
  // One distinct op per (item, non-source peer); the source's slots stay empty.
  std::vector<std::vector<double>> latencyMs(kItems * kNodes);
  std::vector<double> fromBumpMs;
  std::vector<double> latenessMs;
  double lastInstall = fleet->establishedAt;
  for (const auto& [key, bumpTime] : events.bumps) {
    const auto [item, version] = key;
    if (bumpTime < fleet->establishedAt) continue;
    // The bump timer re-arms at the end of the previous bump, so that bump
    // plus the interval is when this one was due. Version 1 has no
    // predecessor; it counts as on time.
    const auto prev = events.bumps.find({item, version - 1});
    const double due =
        prev != events.bumps.end() ? prev->second + kBumpInterval[item % kNodes] : bumpTime;
    if (prev != events.bumps.end()) latenessMs.push_back(1e3 * (bumpTime - due));
    for (NodeId node = 0; node < kNodes; ++node) {
      if (node == item % kNodes) continue;
      ++result.attempted;
      const auto it = events.installs.find({item, version, node});
      if (it == events.installs.end()) {
        result.fail("item " + std::to_string(item) + " version " + std::to_string(version) +
                    " never installed at node " + std::to_string(node));
        continue;
      }
      latencyMs[item * kNodes + node].push_back(1e3 * (it->second - due));
      fromBumpMs.push_back(1e3 * (it->second - bumpTime));
      lastInstall = std::max(lastInstall, it->second);
    }
  }
  for (const auto& d : fleet->daemons)
    for (data::ItemId item = 0; item < kItems; ++item)
      if (d->heldVersion(item).value_or(0) != bumpLimitOf(item % kNodes, seconds)) {
        result.correct = false;
        result.warnings.push_back("node " + std::to_string(d->config().node) +
                                  " does not hold the last version of item " +
                                  std::to_string(item));
      }
  if (result.attempted == 0) {
    result.attempted = 1;
    result.fail("no bump after the mesh was established");
  }

  const double timed = lastInstall - fleet->establishedAt;
  if (!options.trace) {
    reportEndToEnd(result, setupSeconds, latencyMs, timed);
    std::ostringstream line;
    line << "from the bump event (no timer lateness): p10 " << percentile(fromBumpMs, 10.0)
         << " ms, p50 " << median(fromBumpMs) << " ms, p90 " << percentile(fromBumpMs, 90.0)
         << " ms; bump lateness p50 " << median(latenessMs) << " ms, p90 "
         << percentile(latenessMs, 90.0) << " ms over " << latenessMs.size() << " bumps";
    result.notes.push_back(line.str());
    return result;
  }

  for (const auto& [name, unit] : perLayerMetrics())
    result.metrics.emplace(name, Metric{0.0, unit});  // keeps values already set
  const auto counter = [&](const char* name) {
    return static_cast<double>(fleet->registry.counter(name).value());
  };
  const auto codecSpan = spans->begin("peer.frame_codec", SpanRecorder::kNoParent, 0);
  const double codecUs = frameCodecMicros(events, result);
  spans->end(codecSpan);
  result.set("peer.start_ms", 1e3 * median(fleet->startSeconds), "ms");
  result.set("peer.frame_codec_us", codecUs, "us");
  result.set("peer.push.sent", counter("peer.push.sent"), "count");
  result.set("peer.push.installed", counter("peer.push.installed"), "count");
  result.set("peer.net.sessions", counter("peer.net.sessions"), "count");
  result.set("peer.net.reconnects", counter("peer.net.reconnects"), "count");
  result.set("peer.net.frames_rejected", counter("peer.net.frames_rejected"), "count");
  result.set("peer.store.compactions", counter("peer.store.compactions"), "count");
  result.set("peer.bump_lateness_ms_p90", percentile(latenessMs, 90.0), "ms");
  reportOpLayers(result, summarizeLatency(latencyMs, timed));
  result.set("obs.tracer_events", static_cast<double>(events.events), "count");
  result.set("peer.loop_busy_ratio", result.metrics["host.cpu_wall_ratio"].value, "ratio");
  reportSpans(result, *spans, options);
  return result;
}

}  // namespace perfbench
