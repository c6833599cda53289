#include "peer/peer_config.hpp"

#include <cstdlib>

#include "runner/flat_json.hpp"

namespace dtncache::peer {

namespace {

/// Bad config input: a plain message, like the loader's (flat_json.hpp).
void require(bool ok, const std::string& message) {
  if (!ok) runner::rejectConfig(message);
}

void bindAll(const runner::FieldBinder& b, PeerdConfig& c) {
  b.numeric("peer.node", c.node);
  b.numeric("peer.nodeCount", c.nodeCount);
  b.numeric("peer.itemCount", c.itemCount);
  b.numeric("peer.listenPort", c.listenPort);
  b.text("peer.peers", c.peers);

  b.text("peer.storePath", c.storePath);
  b.numeric("peer.memoryCapacityBytes", c.memoryCapacityBytes);
  b.numeric("peer.compactThresholdBytes", c.compactThresholdBytes);

  b.numeric("peer.vvIntervalSeconds", c.vvIntervalSeconds);
  b.numeric("peer.maintenanceIntervalSeconds", c.maintenanceIntervalSeconds);
  b.numeric("peer.bumpIntervalSeconds", c.bumpIntervalSeconds);
  b.numeric("peer.bumpLimit", c.bumpLimit);
  b.numeric("peer.payloadBytes", c.payloadBytes);
  b.numeric("peer.queryIntervalSeconds", c.queryIntervalSeconds);

  b.numeric("peer.tauSeconds", c.tauSeconds);
  b.numeric("peer.fanoutBound", c.fanoutBound);
  b.numeric("peer.priorRate", c.priorRate);
  b.enumeration("peer.pushPolicy", c.pushPolicy,
                {{PushPolicy::kHierarchy, "hierarchy"}, {PushPolicy::kAny, "any"}});

  b.numeric("peer.helloTimeoutSeconds", c.helloTimeoutSeconds);
  b.numeric("peer.idleTimeoutSeconds", c.idleTimeoutSeconds);
  b.numeric("peer.reconnectBaseSeconds", c.reconnectBaseSeconds);
  b.numeric("peer.reconnectMaxSeconds", c.reconnectMaxSeconds);

  b.numeric("peer.runSeconds", c.runSeconds);
  b.text("peer.tracePath", c.tracePath);
}

}  // namespace

std::string dumpPeerConfigJson(const PeerdConfig& config) {
  return runner::FieldBinder::dump(config, bindAll);
}

void applyPeerConfigJson(PeerdConfig& config, const std::string& text) {
  runner::FieldBinder::load(config, text, bindAll);
}

void validatePeerConfig(const PeerdConfig& config) {
  require(config.nodeCount >= 2, "peer.nodeCount must be >= 2 (a peer needs peers)");
  require(config.node < config.nodeCount, "peer.node must be < peer.nodeCount");
  require(config.itemCount >= 1, "peer.itemCount must be >= 1");
  require(config.listenPort <= 65535, "peer.listenPort must fit a port");
  require(config.vvIntervalSeconds > 0.0, "peer.vvIntervalSeconds must be positive");
  require(config.maintenanceIntervalSeconds > 0.0,
          "peer.maintenanceIntervalSeconds must be positive");
  require(config.bumpIntervalSeconds > 0.0, "peer.bumpIntervalSeconds must be positive");
  require(config.fanoutBound >= 1, "peer.fanoutBound must be >= 1");
  require(config.tauSeconds > 0.0, "peer.tauSeconds must be positive");
  require(config.priorRate >= 0.0, "peer.priorRate must be >= 0");
  require(config.reconnectBaseSeconds > 0.0, "peer.reconnectBaseSeconds must be positive");
  require(config.reconnectMaxSeconds >= config.reconnectBaseSeconds,
          "peer.reconnectMaxSeconds must be >= the base");
  parsePeerList(config.peers);  // throws on malformed entries
}

std::vector<PeerAddr> parsePeerList(const std::string& spec) {
  std::vector<PeerAddr> out;
  for (const std::string& entry : runner::splitList(spec, ',')) {
    const std::size_t colon = entry.rfind(':');
    require(colon != std::string::npos && colon > 0 && colon + 1 < entry.size(),
            "peer.peers entry '" + entry + "' is not host:port");
    char* parseEnd = nullptr;
    const long port = std::strtol(entry.c_str() + colon + 1, &parseEnd, 10);
    require(parseEnd != nullptr && *parseEnd == '\0' && port > 0 && port <= 65535,
            "peer.peers entry '" + entry + "' has a bad port");
    out.push_back(PeerAddr{entry.substr(0, colon), static_cast<std::uint16_t>(port)});
  }
  return out;
}

}  // namespace dtncache::peer
