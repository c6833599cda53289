#pragma once

/// \file config_io.hpp
/// Experiment configuration as JSON — the reproducibility interface.
///
/// `dumpConfig` writes every tunable of an ExperimentConfig as a flat JSON
/// object with dotted keys ("trace.nodeCount": 97, "hierarchical.theta":
/// 0.9); `loadConfig` parses the same format back, rejecting unknown keys
/// with a nearest-valid-key suggestion (a typo silently running the
/// defaults would fabricate results). The CLI exposes these as
/// `--dump-config` / `--config=<file>`, so any run can be archived and
/// replayed exactly.
///
/// The parser and the field-binder machinery live in flat_json.hpp, shared
/// with the peer daemon's `peer.*` config namespace (src/peer/peer_config).

#include <optional>
#include <string>

#include "runner/experiment.hpp"

namespace dtncache::runner {

/// Serialize all tunable fields (pointer-valued fields like externalTrace
/// are runtime-only and excluded).
std::string dumpConfig(const ExperimentConfig& config);

/// Parse a dumped config. Throws InvariantViolation on malformed JSON,
/// unknown keys, or type mismatches. Keys may be omitted (defaults apply),
/// so hand-written partial configs work.
ExperimentConfig loadConfig(const std::string& json);

/// Apply a flat-JSON fragment on top of an existing config — the override
/// mechanism behind sweep axes (`{"hierarchical.replication.theta": 0.7}`
/// patches just that knob). Same key set and validation as loadConfig.
void applyConfigJson(ExperimentConfig& config, const std::string& json);

/// The `trace.model` name of a rate model, as dumped and loaded.
const std::string& rateModelName(trace::RateModel model);

/// The scheme a config's `scheme` key (or a CLI's `--scheme`) names:
/// "hierarchical", "norefresh", ... — schemeName() lowercased.
std::optional<SchemeKind> parseSchemeName(const std::string& name);

ExperimentConfig loadConfigFile(const std::string& path);
void saveConfigFile(const ExperimentConfig& config, const std::string& path);

}  // namespace dtncache::runner
