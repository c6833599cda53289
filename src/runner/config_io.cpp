#include "runner/config_io.hpp"

#include <fstream>
#include <sstream>

#include "runner/flat_json.hpp"
#include "sim/assert.hpp"

namespace dtncache::runner {
namespace {

const std::vector<std::pair<trace::RateModel, std::string>>& rateModelNames() {
  static const std::vector<std::pair<trace::RateModel, std::string>> names = {
      {trace::RateModel::kHomogeneous, "homogeneous"},
      {trace::RateModel::kPareto, "pareto"},
      {trace::RateModel::kCommunity, "community"},
      {trace::RateModel::kMobilityCommunity, "mobility-community"},
      {trace::RateModel::kMobilityPowerLaw, "mobility-powerlaw"}};
  return names;
}

const std::vector<std::pair<SchemeKind, std::string>>& schemeNames() {
  static const std::vector<std::pair<SchemeKind, std::string>> names = {
      {SchemeKind::kHierarchical, "hierarchical"}, {SchemeKind::kNoRefresh, "norefresh"},
      {SchemeKind::kSourceDirect, "sourcedirect"}, {SchemeKind::kEpidemic, "epidemic"},
      {SchemeKind::kFlooding, "flooding"},         {SchemeKind::kPull, "pull"},
      {SchemeKind::kInvalidation, "invalidation"}};
  return names;
}

void bindAll(const FieldBinder& b, ExperimentConfig& c) {
  // trace
  b.numeric("trace.nodeCount", c.trace.nodeCount);
  b.numeric("trace.durationSeconds", c.trace.duration);
  b.enumeration<trace::RateModel>("trace.model", c.trace.model, rateModelNames());
  b.numeric("trace.meanContactsPerPairPerDay", c.trace.meanContactsPerPairPerDay);
  b.numeric("trace.paretoShape", c.trace.paretoShape);
  b.numeric("trace.rateSpread", c.trace.rateSpread);
  b.numeric("trace.communities", c.trace.communities);
  b.numeric("trace.intraCommunityBoost", c.trace.intraCommunityBoost);
  b.boolean("trace.diurnal", c.trace.diurnal);
  b.numeric("trace.nightActivity", c.trace.nightActivity);
  b.numeric("trace.meanContactDuration", c.trace.meanContactDuration);
  b.numeric("trace.meanDegree", c.trace.meanDegree);
  b.numeric("trace.interCommunityFraction", c.trace.interCommunityFraction);
  b.numeric("trace.interContactAlpha", c.trace.interContactAlpha);
  b.numeric("trace.seed", c.trace.seed);
  // catalog
  b.numeric("catalog.itemCount", c.catalog.itemCount);
  b.numeric("catalog.itemSizeBytes", c.catalog.itemSizeBytes);
  b.numeric("catalog.refreshPeriodSeconds", c.catalog.refreshPeriod);
  b.numeric("catalog.lifetimeFactor", c.catalog.lifetimeFactor);
  b.boolean("catalog.staggerBirths", c.catalog.staggerBirths);
  // workload
  b.numeric("workload.queriesPerNodePerDay", c.workload.queriesPerNodePerDay);
  b.numeric("workload.zipfExponent", c.workload.zipfExponent);
  b.numeric("workload.queryDeadlineSeconds", c.workload.queryDeadline);
  b.numeric("workload.seed", c.workload.seed);
  // cache + network
  b.numeric("cache.cachingNodesPerItem", c.cache.cachingNodesPerItem);
  b.numeric("cache.cacheCapacityBytes", c.cache.cacheCapacityBytes);
  b.numeric("cache.bufferCapacityBytes", c.cache.bufferCapacityBytes);
  b.boolean("cache.warmStart", c.cache.warmStart);
  b.numeric("cache.forwarding.initialCopies", c.cache.forwarding.initialCopies);
  b.numeric("cache.forwarding.improvementFactor", c.cache.forwarding.improvementFactor);
  b.numeric("network.bandwidthBytesPerSec", c.network.bandwidthBytesPerSec);
  b.numeric("network.contactLossRate", c.network.contactLossRate);
  // estimator
  b.enumeration<trace::EstimatorMode>(
      "estimator.mode", c.estimator.mode,
      {{trace::EstimatorMode::kCumulative, "cumulative"},
       {trace::EstimatorMode::kSlidingWindow, "window"},
       {trace::EstimatorMode::kEwma, "ewma"}});
  b.numeric("estimator.windowSeconds", c.estimator.window);
  b.numeric("estimator.ewmaAlpha", c.estimator.ewmaAlpha);
  b.numeric("estimatorWarmupSeconds", c.estimatorWarmup);
  // allocation + scheme
  b.enumeration<cache::AllocationPolicy>(
      "allocation", c.allocation,
      {{cache::AllocationPolicy::kUniform, "uniform"},
       {cache::AllocationPolicy::kProportional, "proportional"},
       {cache::AllocationPolicy::kSqrt, "sqrt"}});
  b.enumeration<SchemeKind>("scheme", c.scheme, schemeNames());
  // hierarchical
  b.numeric("hierarchical.fanoutBound", c.hierarchical.hierarchy.fanoutBound);
  b.boolean("hierarchical.depthAware", c.hierarchical.hierarchy.depthAware);
  b.boolean("hierarchical.replication.enabled", c.hierarchical.replication.enabled);
  b.numeric("hierarchical.replication.theta", c.hierarchical.replication.theta);
  b.numeric("hierarchical.replication.maxHelpersPerNode",
            c.hierarchical.replication.maxHelpersPerNode);
  b.enumeration<core::MaintenanceMode>(
      "hierarchical.maintenance", c.hierarchical.maintenance,
      {{core::MaintenanceMode::kRebuild, "rebuild"},
       {core::MaintenanceMode::kLocalRepair, "local-repair"},
       {core::MaintenanceMode::kStatic, "static"}});
  b.numeric("hierarchical.maintenancePeriodSeconds", c.hierarchical.maintenancePeriod);
  b.boolean("hierarchical.useOracleRates", c.hierarchical.useOracleRates);
  b.boolean("hierarchical.relayAssisted", c.hierarchical.relayAssisted);
  b.numeric("hierarchical.relayCopiesPerVersion", c.hierarchical.relayCopiesPerVersion);
  // churn + energy
  b.boolean("churn.enabled", c.churnEnabled);
  b.boolean("churn.repairEnabled", c.churnRepairEnabled);
  b.numeric("churn.meanUptimeSeconds", c.churn.meanUptime);
  b.numeric("churn.meanDowntimeSeconds", c.churn.meanDowntime);
  b.boolean("energy.enabled", c.energyEnabled);
  b.boolean("energy.awarePlanning", c.energyAwarePlanning);
  b.numeric("energy.batteryJoules", c.energy.batteryJoules);
  b.numeric("energy.txJoulesPerMB", c.energy.txJoulesPerMB);
  b.numeric("energy.rxJoulesPerMB", c.energy.rxJoulesPerMB);
  b.numeric("energy.idleJoulesPerHour", c.energy.idleJoulesPerHour);
  // master seed
  b.numeric("seed", c.seed);
  // sharded kernel (0 = auto; output is shard-count-invariant)
  b.numeric("sim.shards", c.shards);
}

}  // namespace

const std::string& rateModelName(trace::RateModel model) {
  for (const auto& [value, name] : rateModelNames())
    if (value == model) return name;
  DTNCACHE_CHECK_MSG(false, "unnamed trace model");
  return rateModelNames().front().second;
}

std::optional<SchemeKind> parseSchemeName(const std::string& name) {
  for (const auto& [kind, text] : schemeNames())
    if (text == name) return kind;
  return std::nullopt;
}

std::string dumpConfig(const ExperimentConfig& config) {
  std::ostringstream out;
  out << "{\n";
  FieldBinder b;
  b.mode = FieldBinder::Mode::kDump;
  b.out = &out;
  bindAll(b, const_cast<ExperimentConfig&>(config));  // dump never mutates
  out << "\n}\n";
  return out.str();
}

ExperimentConfig loadConfig(const std::string& json) {
  ExperimentConfig config;
  applyConfigJson(config, json);
  return config;
}

void applyConfigJson(ExperimentConfig& config, const std::string& json) {
  const auto values = parseFlatJson(json);

  FieldBinder b;
  b.mode = FieldBinder::Mode::kLoad;
  b.values = &values;
  bindAll(b, config);
  b.requireAllKnown();
}

ExperimentConfig loadConfigFile(const std::string& path) {
  std::ifstream in(path);
  DTNCACHE_CHECK_MSG(in.good(), "cannot open config file " << path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return loadConfig(buf.str());
}

void saveConfigFile(const ExperimentConfig& config, const std::string& path) {
  std::ofstream out(path);
  DTNCACHE_CHECK_MSG(out.good(), "cannot write config file " << path);
  out << dumpConfig(config);
}

}  // namespace dtncache::runner
