/// \file dtncache_peerd.cpp
/// The networked cache-freshness peer daemon: one process = one node of
/// the paper's scheme, speaking the dtncache wire protocol over TCP and
/// persisting its cache in an append-only log.
///
/// Examples:
///   dtncache_peerd --dump-config                   # full default config
///   dtncache_peerd --config=peer0.json             # run from a config file
///   dtncache_peerd --config=peer1.json --set="peer.runSeconds=20"
///
/// The config file is the same flat-JSON format as experiment configs
/// (`peer.*` namespace; unknown keys are rejected with a nearest-key
/// suggestion). `--set="key=value;key=value"` patches any key on top of the
/// file, checked the same way; a bad config exits with status 2.
///
/// On exit the daemon writes its JSONL trace (same schema as a simulation
/// trace — scripts/trace_summarize.py reads it unchanged) followed by one
/// `"kind": "counters"` line carrying the `ctr.*` registry snapshot.

#include <csignal>
#include <fstream>
#include <iostream>

#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "peer/peerd.hpp"
#include "runner/args.hpp"
#include "runner/flat_json.hpp"
#include "sim/assert.hpp"

using namespace dtncache;

namespace {

peer::EventLoop* g_loop = nullptr;

void handleSignal(int) {
  if (g_loop != nullptr) {
    g_loop->stop();
    g_loop->wakeup();
  }
}

void writeTrace(const std::string& path, obs::Tracer& tracer,
                const obs::Registry& registry) {
  std::ofstream out(path);
  if (!out.good()) {
    std::cerr << "warning: cannot write trace file '" << path << "'\n";
    return;
  }
  tracer.flushTo(out);
  // Trailing counters line: the live analogue of the sweep's ctr.* columns.
  out << "{\"run\": \"" << tracer.runLabel() << "\", \"kind\": \"counters\"";
  for (const auto& [name, value] : registry.counterSnapshot())
    out << ", \"ctr." << name << "\": " << value;
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  runner::ArgParser args(argc, argv);

  const std::string configPath =
      args.getString("--config", "", "flat-JSON config file (peer.* keys)");
  const bool dumpConfig =
      args.getBool("--dump-config", "print the effective config as JSON and exit");
  const std::string setSpec = args.getString(
      "--set", "", "peer.* keys to patch, \"key=value;key2=value2\" (after --config)");
  if (const auto status = args.finish("dtncache_peerd")) return *status;

  peer::PeerdConfig config;
  try {  // bad config input, like a bad flag, exits 2
    if (!configPath.empty())
      peer::applyPeerConfigJson(config, runner::readConfigFile(configPath));
    peer::applyPeerConfigJson(config, runner::assignmentsJson(runner::splitAssignments(setSpec)));
    if (dumpConfig) {
      std::cout << peer::dumpPeerConfigJson(config);
      return 0;
    }
    peer::validatePeerConfig(config);
  } catch (const InvariantViolation& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  try {
    obs::Tracer tracer("peerd-node" + std::to_string(config.node));
    obs::Registry registry;
    peer::Peerd daemon(std::move(config), &tracer, &registry);
    if (!daemon.start()) {
      std::cerr << "error: failed to start (listen socket or store setup)\n";
      return 1;
    }

    g_loop = &daemon.loop();
    std::signal(SIGINT, handleSignal);
    std::signal(SIGTERM, handleSignal);
    std::signal(SIGPIPE, SIG_IGN);

    std::cout << "dtncache_peerd node " << daemon.config().node << " listening on port "
              << daemon.boundPort() << std::endl;
    daemon.run();
    g_loop = nullptr;

    if (!daemon.config().tracePath.empty())
      writeTrace(daemon.config().tracePath, tracer, registry);

    std::cout << "dtncache_peerd node " << daemon.config().node << " exiting;";
    for (data::ItemId item = 0; item < daemon.config().itemCount; ++item) {
      const auto held = daemon.heldVersion(item);
      std::cout << " item" << item << "=v" << (held ? *held : 0);
    }
    std::cout << std::endl;
    return 0;
  } catch (const InvariantViolation& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
