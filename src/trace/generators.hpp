#pragma once

/// \file generators.hpp
/// Synthetic contact-trace generators.
///
/// The paper evaluates on the MIT Reality and Haggle Infocom'06 Bluetooth
/// traces, which are not redistributable here. Following the substitution
/// rule in DESIGN.md we generate traces from the same statistical model the
/// authors use to analyze those traces: heterogeneous pairwise Poisson
/// contact processes. The generator supports
///   - heavy-tailed (truncated Pareto) pairwise rates — the strong rate skew
///     real traces exhibit;
///   - community structure — intra-community pairs meet far more often;
///   - diurnal activity modulation — day/night cycles (Reality) or
///     conference-session bursts (Infocom).
/// Two presets, realityLike() and infocomLike(), match the node counts and
/// qualitative density/duration regimes of the originals.

#include <cstdint>
#include <functional>

#include "sim/rng.hpp"
#include "trace/contact.hpp"
#include "trace/rate_matrix.hpp"

namespace dtncache::trace {

enum class RateModel {
  kHomogeneous,  ///< every pair shares one rate
  kPareto,       ///< i.i.d. truncated-Pareto pairwise rates
  kCommunity,    ///< Pareto rates, boosted within communities, damped across
  /// Streamed mobility models (trace/mobility.hpp): contacts occur only on
  /// a sparse contact graph (meanDegree edges per node) instead of every
  /// pair, so generation cost and memory are O(nodes + edges + contacts)
  /// and node counts of 10^5–10^6 are practical. Diurnal modulation is not
  /// applied by these models (the thinning pass would defeat streaming);
  /// `diurnal` is ignored.
  kMobilityCommunity,  ///< community-biased sparse graph, exponential gaps
  kMobilityPowerLaw,   ///< uniform sparse graph, Pareto inter-contact gaps
};

struct SyntheticTraceConfig {
  std::size_t nodeCount = 50;
  sim::SimTime duration = sim::days(14);
  RateModel model = RateModel::kCommunity;

  /// Target mean contacts per pair per day (over all pairs, after
  /// community/diurnal adjustments — the generator renormalizes to hit it).
  double meanContactsPerPairPerDay = 0.2;

  /// Pareto shape for the pairwise-rate distribution; smaller = more skew.
  /// 1.5 reproduces the heavy skew of Bluetooth encounter traces.
  double paretoShape = 1.5;
  /// Ratio of the largest to smallest pairwise rate (truncation cap).
  double rateSpread = 200.0;

  std::size_t communities = 6;
  /// Multiplier applied to intra-community pair rates before renormalizing.
  double intraCommunityBoost = 8.0;

  /// Diurnal modulation: rate is scaled by `nightActivity` during the night
  /// third of each day. Disabled when nightActivity == 1.
  bool diurnal = true;
  double nightActivity = 0.15;

  /// Contact durations are exponential with this mean (seconds).
  double meanContactDuration = 120.0;

  // --- mobility models only (kMobilityCommunity / kMobilityPowerLaw) ---

  /// Target mean number of contact-graph neighbors per node. The pair
  /// sparsity of the generated trace is ~meanDegree / (nodeCount - 1).
  double meanDegree = 40.0;
  /// kMobilityCommunity: probability an edge endpoint is drawn from the
  /// whole network instead of the node's own community (the bridges that
  /// keep the graph connected across communities).
  double interCommunityFraction = 0.05;
  /// kMobilityPowerLaw: Pareto shape of the inter-contact gap distribution;
  /// must be > 1 so the mean gap is finite (2.0 ≈ the 1+α exponents
  /// reported for human inter-contact times). Ignored by the exponential
  /// model.
  double interContactAlpha = 2.0;

  std::uint64_t seed = 1;

  /// Memberwise, so a field added above is part of the trace memo's key
  /// (trace/trace_cache.hpp) without further edits.
  bool operator==(const SyntheticTraceConfig&) const = default;
};

struct SyntheticTrace {
  ContactTrace trace;
  /// Ground-truth average pairwise rates (diurnal modulation averaged in);
  /// the "oracle knowledge" arm of the estimator ablation.
  RateMatrix rates;
  /// Community assignment of each node (empty unless kCommunity).
  std::vector<std::size_t> community;
  /// trace.stats(), computed once by generateShared and adoptTrace so runs
  /// replaying a memoized trace do not recount it; left default by
  /// generate().
  TraceStats stats;
};

/// Generate a trace from the config. Deterministic in config.seed.
SyntheticTrace generate(const SyntheticTraceConfig& config);

/// Visit every contact generate(`config`) would hold, without building the
/// trace, its rate matrix or its communities. Each contact has a < b, and
/// the draws are generate()'s, so the contacts are the same; only their
/// order differs:
///  - dense models (kHomogeneous, kPareto, kCommunity): pair by pair, in
///    (a, b) order, each pair's contacts in increasing start. Contacts of
///    different pairs are NOT in time order, so `visit` may only rely on
///    per-pair order (as ContactRateEstimator::recordContact does);
///  - mobility models: the SyntheticMobility::next() stream, already in
///    nondecreasing start.
void forEachGeneratedContact(const SyntheticTraceConfig& config,
                             const std::function<void(const Contact&)>& visit);

/// A caller-owned (imported) trace as the world of a run: the trace, its
/// MLE-fitted rate matrix as the rates and its stats; no communities.
SyntheticTrace adoptTrace(ContactTrace trace);

/// 97 nodes / 30 days / strong communities / day-night cycle: a scaled
/// stand-in for the MIT Reality Mining campus trace (97 devices, 9 months;
/// we shorten to 30 days and keep per-day density, which preserves every
/// rate-driven decision while keeping runs laptop-sized).
SyntheticTraceConfig realityLikeConfig(std::uint64_t seed = 1);

/// 78 nodes / 4 days / dense mixing / weak communities: a stand-in for the
/// Haggle Infocom'06 conference trace (78 iMotes, ~4 days, very dense).
SyntheticTraceConfig infocomLikeConfig(std::uint64_t seed = 1);

/// Homogeneous helper for unit tests and analytical cross-checks.
SyntheticTraceConfig homogeneousConfig(std::size_t nodes, double contactsPerPairPerDay,
                                       sim::SimTime duration, std::uint64_t seed = 1);

}  // namespace dtncache::trace
