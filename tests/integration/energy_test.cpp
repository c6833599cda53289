/// Full-stack energy runs: batteries drain with traffic, depleted nodes
/// drop out, battery-aware planning steers helper duty.

#include <cmath>

#include <gtest/gtest.h>

#include "runner/experiment.hpp"

namespace dtncache::runner {
namespace {

ExperimentConfig energyConfig(double battery) {
  ExperimentConfig c;
  c.trace = trace::homogeneousConfig(20, 6.0, sim::days(10), 3);
  c.catalog.itemCount = 4;
  c.catalog.refreshPeriod = sim::hours(6);
  c.workload.queriesPerNodePerDay = 2.0;
  c.cache.cachingNodesPerItem = 8;
  c.hierarchical.useOracleRates = true;
  c.energyEnabled = true;
  c.energy.batteryJoules = battery;
  c.energy.idleJoulesPerHour = 0.2;
  return c;
}

TEST(Energy, AmpleBudgetNobodyDies) {
  const auto out = runExperiment(energyConfig(1e6));
  EXPECT_EQ(out.depletedNodes, 0u);
  EXPECT_TRUE(std::isinf(out.firstDepletionTime));
  EXPECT_GT(out.meanRemainingBattery, 0.9);
}

TEST(Energy, TightBudgetKillsNodesAndHurtsFreshness) {
  const auto ample = runExperiment(energyConfig(1e6));
  const auto tight = runExperiment(energyConfig(60.0));
  EXPECT_GT(tight.depletedNodes, 0u);
  EXPECT_FALSE(std::isinf(tight.firstDepletionTime));
  EXPECT_LT(tight.results.meanFreshFraction, ample.results.meanFreshFraction);
  EXPECT_GT(tight.contactsSuppressed, 0u);
}

TEST(Energy, ResidualBatteryTracksBytesSent) {
  // Internal consistency: the scheme that moves more bytes must end with
  // less battery (NoRefresh moves the least by construction).
  auto cfg = energyConfig(1e6);
  cfg.scheme = SchemeKind::kNoRefresh;
  const auto none = runExperiment(cfg);
  cfg.scheme = SchemeKind::kFlooding;
  const auto flood = runExperiment(cfg);
  EXPECT_GT(flood.results.transfers.total().bytes, none.results.transfers.total().bytes);
  EXPECT_LT(flood.meanRemainingBattery, none.meanRemainingBattery);
}

TEST(Energy, BatteryAwarePlanningChangesHelperChoice) {
  auto cfg = energyConfig(120.0);
  cfg.hierarchical.maintenance = core::MaintenanceMode::kRebuild;
  cfg.hierarchical.maintenancePeriod = sim::hours(12);
  cfg.energyAwarePlanning = false;
  const auto blind = runExperiment(cfg);
  cfg.energyAwarePlanning = true;
  const auto aware = runExperiment(cfg);
  // The arms genuinely differ (plans diverge)…
  EXPECT_NE(blind.results.transfers.total().bytes, aware.results.transfers.total().bytes);
  // …and the aware arm must not be materially worse on survival.
  EXPECT_LE(aware.depletedNodes, blind.depletedNodes + 1);
}

TEST(Energy, DeterministicWithEnergyEnabled) {
  const auto a = runExperiment(energyConfig(100.0));
  const auto b = runExperiment(energyConfig(100.0));
  EXPECT_EQ(a.depletedNodes, b.depletedNodes);
  EXPECT_DOUBLE_EQ(a.meanRemainingBattery, b.meanRemainingBattery);
}

}  // namespace
}  // namespace dtncache::runner
