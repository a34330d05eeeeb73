// Reproducer for a defect found while sizing the baselines-walk workload:
// online-greedy's slot-11 LP fails twice on this instance (the IPM reports
// dual-infeasible, also on the cold fresh-workspace retry) and the
// ECA_CHECK in algo/baselines.cc aborts the process. Disabled so the suite
// stays green; reproduce with --gtest_also_run_disabled_tests.
#include <gtest/gtest.h>

#include "algo/baselines.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

namespace {

TEST(KnownDefect, DISABLED_OnlineGreedyCompletesRandomWalkJ256Seed124) {
  eca::sim::ScenarioOptions options;
  options.num_users = 256;
  options.num_slots = 24;
  options.seed = 124;
  options.workload.distribution = eca::workload::Distribution::kPower;
  const eca::model::Instance instance =
      eca::sim::make_random_walk_instance(options);
  eca::algo::OnlineGreedy greedy;
  const eca::sim::SimulationResult result =
      eca::sim::Simulator::run(instance, greedy);
  EXPECT_LE(result.max_violation, 1e-5);
}

}  // namespace
