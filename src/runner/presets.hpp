#pragma once

/// \file presets.hpp
/// The named experiment scenarios and the one flags → base-config mapping
/// of dtncache, dtncache_sweep and the bench_* drivers: one preset name is
/// one config fingerprint everywhere.
///
/// Refresh periods are scaled to trace density (as the paper scales its
/// TTLs per trace): the Reality-like campus trace is ~40x sparser than the
/// Infocom-like conference trace, so items refresh every 2 days vs 6 hours,
/// with query rate and deadline scaled alike. The mobility preset has
/// Reality-scale per-pair density and takes the Reality timings.

#include <string>

#include "runner/args.hpp"
#include "runner/experiment.hpp"

namespace dtncache::runner {

/// The preset names, for help and error text.
inline constexpr const char* kPresetNames = "reality | infocom | mobility";

/// Preset `name` at seed 1. `nodes` > 0 regenerates mobility at that size
/// (trace::mobilityConfig scales its communities with N) and sets only
/// `trace.nodeCount` on the others. Throws std::invalid_argument for an
/// unknown name.
ExperimentConfig presetConfig(const std::string& name, std::size_t nodes = 0);

/// Registers --config, --trace, --nodes and --days on `args` and returns
/// the base config they name: the --config file, or else the --trace
/// preset at --nodes; then --nodes sets a file's `trace.nodeCount` and
/// --days the duration. --trace with --config, an unknown preset, a
/// negative --nodes or an unreadable file go to args.errors().
ExperimentConfig baseConfig(ArgParser& args);

}  // namespace dtncache::runner
