#include "peer/peer_config.hpp"

#include <gtest/gtest.h>

#include "sim/assert.hpp"

namespace dtncache::peer {
namespace {

TEST(PeerConfig, DumpLoadRoundTrip) {
  PeerdConfig original;
  original.node = 3;
  original.nodeCount = 8;
  original.itemCount = 16;
  original.listenPort = 19999;
  original.peers = "127.0.0.1:19000,peer-host:19001";
  original.storePath = "/tmp/peer3.log";
  original.vvIntervalSeconds = 0.25;
  original.bumpLimit = 12;
  original.pushPolicy = PushPolicy::kAny;
  original.tracePath = "/tmp/peer3.jsonl";

  PeerdConfig loaded;
  applyPeerConfigJson(loaded, dumpPeerConfigJson(original));
  EXPECT_EQ(loaded.node, 3u);
  EXPECT_EQ(loaded.nodeCount, 8u);
  EXPECT_EQ(loaded.itemCount, 16u);
  EXPECT_EQ(loaded.listenPort, 19999u);
  EXPECT_EQ(loaded.peers, original.peers);
  EXPECT_EQ(loaded.storePath, original.storePath);
  EXPECT_DOUBLE_EQ(loaded.vvIntervalSeconds, 0.25);
  EXPECT_EQ(loaded.bumpLimit, 12u);
  EXPECT_EQ(loaded.pushPolicy, PushPolicy::kAny);
  EXPECT_EQ(loaded.tracePath, original.tracePath);
  // And the round-tripped config dumps identically.
  EXPECT_EQ(dumpPeerConfigJson(loaded), dumpPeerConfigJson(original));
}

TEST(PeerConfig, UnknownKeyGetsNearestSuggestion) {
  PeerdConfig config;
  try {
    applyPeerConfigJson(config, "{\"peer.nodeCont\": 4}");
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown config key 'peer.nodeCont'"), std::string::npos)
        << message;
    EXPECT_NE(message.find("did you mean 'peer.nodeCount'"), std::string::npos)
        << message;
  }
}

// The value a 32-bit field cannot hold is named as given, not rounded to
// 4.29497e+09 and not cast down to 3.
TEST(PeerConfig, OutOfRangeNodeCountNamedAsGiven) {
  PeerdConfig config;
  try {
    applyPeerConfigJson(config, "{\"peer.nodeCount\": 4294967299}");
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    EXPECT_STREQ(e.what(),
                 "key 'peer.nodeCount' value 4294967299 is out of range for its type "
                 "(0 to 4294967295)");
  }
}

TEST(PeerConfig, BadEnumValueRejected) {
  PeerdConfig config;
  EXPECT_THROW(applyPeerConfigJson(config, "{\"peer.pushPolicy\": \"flood\"}"),
               InvariantViolation);
}

TEST(PeerConfig, OutOfRangeIntegerRejectedWithKeyAndValue) {
  PeerdConfig config;
  try {
    applyPeerConfigJson(config, "{\"peer.listenPort\": -1}");
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("key 'peer.listenPort' value -1 is out of range"),
              std::string::npos)
        << message;
  }
  EXPECT_THROW(applyPeerConfigJson(config, "{\"peer.listenPort\": 4294967296}"),
               InvariantViolation);
  applyPeerConfigJson(config, "{\"peer.listenPort\": 4294967295}");
  EXPECT_EQ(config.listenPort, 4294967295u);
}

TEST(PeerConfig, ValidateCatchesCrossFieldErrors) {
  PeerdConfig config;
  config.nodeCount = 1;  // a peer needs peers
  EXPECT_THROW(validatePeerConfig(config), InvariantViolation);

  config.nodeCount = 4;
  config.node = 4;  // out of range
  EXPECT_THROW(validatePeerConfig(config), InvariantViolation);

  config.node = 0;
  config.reconnectMaxSeconds = config.reconnectBaseSeconds / 2.0;
  EXPECT_THROW(validatePeerConfig(config), InvariantViolation);

  config.reconnectMaxSeconds = 15.0;
  validatePeerConfig(config);  // now clean
}

TEST(PeerConfig, ParsePeerListAcceptsHostsAndSkipsEmptyEntries) {
  const std::vector<PeerAddr> peers =
      parsePeerList("127.0.0.1:19000,,host.example:65535,");
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_EQ(peers[0].host, "127.0.0.1");
  EXPECT_EQ(peers[0].port, 19000u);
  EXPECT_EQ(peers[1].host, "host.example");
  EXPECT_EQ(peers[1].port, 65535u);
  EXPECT_TRUE(parsePeerList("").empty());
}

TEST(PeerConfig, ParsePeerListRejectsMalformedEntries) {
  EXPECT_THROW(parsePeerList("nohost"), InvariantViolation);
  EXPECT_THROW(parsePeerList(":19000"), InvariantViolation);
  EXPECT_THROW(parsePeerList("host:"), InvariantViolation);
  EXPECT_THROW(parsePeerList("host:0"), InvariantViolation);
  EXPECT_THROW(parsePeerList("host:65536"), InvariantViolation);
  EXPECT_THROW(parsePeerList("host:12x"), InvariantViolation);
}

}  // namespace
}  // namespace dtncache::peer
