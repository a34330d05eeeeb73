#include "algo/offline.h"

#include <cmath>

#include <gtest/gtest.h>

#include "algo/baselines.h"
#include "algo/online_approx.h"
#include "sim/paper_examples.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

namespace eca::algo {
namespace {

using model::Instance;
using sim::Simulator;

Instance small_instance(std::uint64_t seed, std::size_t users = 6,
                        std::size_t slots = 5) {
  sim::ScenarioOptions options;
  options.num_users = users;
  options.num_slots = slots;
  options.seed = seed;
  return sim::make_random_walk_instance(options);
}

TEST(Offline, SolvesFigure1aToThePapersOptimum) {
  const Instance instance = sim::figure1a_instance();
  const OfflineResult result = solve_offline(instance);
  ASSERT_EQ(result.status, solve::SolveStatus::kOptimal);
  const auto scored =
      Simulator::score(instance, "offline-opt", result.allocations);
  EXPECT_NEAR(scored.weighted_total,
              sim::kFigure1aOptimalCost + sim::figure1_initial_dynamic_cost(),
              1e-4);
  EXPECT_LT(scored.max_violation, 1e-6);
}

TEST(Offline, SolvesFigure1bBeyondThePapersNarrative) {
  // With slot-1 provisioning costed, pre-provisioning at B beats the
  // paper's migrate-at-slot-2 strategy by 0.1 (see paper_examples.h).
  const Instance instance = sim::figure1b_instance();
  const OfflineResult result = solve_offline(instance);
  ASSERT_EQ(result.status, solve::SolveStatus::kOptimal);
  const auto scored =
      Simulator::score(instance, "offline-opt", result.allocations);
  EXPECT_NEAR(
      scored.weighted_total,
      sim::kFigure1bTrueOptimalCost + sim::figure1_initial_dynamic_cost(),
      1e-4);
}

TEST(Offline, IpmAndPdhgAgree) {
  const Instance instance = small_instance(21);
  OfflineOptions ipm_options;
  ipm_options.solver = OfflineOptions::Solver::kInteriorPoint;
  OfflineOptions pdhg_options;
  pdhg_options.solver = OfflineOptions::Solver::kPdhg;
  const OfflineResult via_ipm = solve_offline(instance, ipm_options);
  const OfflineResult via_pdhg = solve_offline(instance, pdhg_options);
  ASSERT_EQ(via_ipm.status, solve::SolveStatus::kOptimal);
  ASSERT_EQ(via_pdhg.status, solve::SolveStatus::kOptimal);
  // The default PDHG tolerance targets ~0.1% objective accuracy.
  EXPECT_NEAR(via_pdhg.objective_value, via_ipm.objective_value,
              2e-3 * (1.0 + std::abs(via_ipm.objective_value)));
}

TEST(Offline, ParallelPdhgMatchesSerialObjective) {
  // The partitioned PDHG solve is bit-identical to serial by contract
  // (tests/solve/pdhg_parallel_test.cc); through the offline plumbing the
  // objective must therefore agree far inside pdhg_tolerance — this guards
  // the options wiring (lp_threads/lp_oversubscribe forwarding, block
  // hints) end to end. Oversubscription + a floor of 1 nnz engage the pool
  // even on 1-CPU CI machines.
  const Instance instance = small_instance(61, 8, 6);
  OfflineOptions serial_options;
  serial_options.solver = OfflineOptions::Solver::kPdhg;
  serial_options.lp_threads = 1;
  OfflineOptions parallel_options = serial_options;
  parallel_options.lp_threads = 4;
  parallel_options.lp_oversubscribe = true;
  parallel_options.lp_min_nnz_per_thread = 1;
  const OfflineResult serial = solve_offline(instance, serial_options);
  const OfflineResult parallel = solve_offline(instance, parallel_options);
  ASSERT_EQ(serial.status, solve::SolveStatus::kOptimal);
  ASSERT_EQ(parallel.status, solve::SolveStatus::kOptimal);
  EXPECT_EQ(parallel.iterations, serial.iterations);
  EXPECT_NEAR(parallel.objective_value, serial.objective_value,
              serial_options.pdhg_tolerance *
                  (1.0 + std::abs(serial.objective_value)));
}

TEST(OfflineLp, RecordsPerSlotRowBlocks) {
  const Instance instance = small_instance(71, 4, 3);
  const solve::LpProblem lp = build_offline_lp(instance);
  const std::size_t rows_per_slot =
      instance.num_users + 2 * instance.num_clouds +
      instance.num_clouds * instance.num_users;
  ASSERT_EQ(lp.row_block_starts.size(), instance.num_slots);
  for (std::size_t t = 0; t < instance.num_slots; ++t) {
    EXPECT_EQ(lp.row_block_starts[t], t * rows_per_slot) << "slot " << t;
  }
  EXPECT_TRUE(lp.validate().empty());
}

class OfflineLowerBound : public ::testing::TestWithParam<int> {};

TEST_P(OfflineLowerBound, NoOnlineAlgorithmBeatsOffline) {
  const Instance instance =
      small_instance(static_cast<std::uint64_t>(GetParam()));
  const OfflineResult offline = solve_offline(instance);
  ASSERT_EQ(offline.status, solve::SolveStatus::kOptimal);
  const double opt =
      Simulator::score(instance, "offline", offline.allocations)
          .weighted_total;
  for (const auto& factory : sim::paper_algorithms(true)) {
    auto algorithm = factory.make();
    const double cost =
        Simulator::run(instance, *algorithm).weighted_total;
    // Allow the PDHG tolerance margin on the offline side.
    EXPECT_GE(cost, opt * (1.0 - 5e-3)) << factory.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OfflineLowerBound, ::testing::Range(0, 5));

TEST(Offline, AllocationsAreFeasible) {
  const Instance instance = small_instance(31, 8, 6);
  const OfflineResult offline = solve_offline(instance);
  ASSERT_EQ(offline.status, solve::SolveStatus::kOptimal);
  // Feasible up to the documented first-order solver tolerance.
  EXPECT_LT(model::max_violation(instance, offline.allocations), 5e-3);
}

TEST(Offline, ObjectiveMatchesCostModel) {
  // The LP objective (with aux variables at their optimal values) must
  // equal the cost model's evaluation of the extracted allocations.
  const Instance instance = small_instance(41);
  const OfflineResult offline = solve_offline(instance);
  ASSERT_EQ(offline.status, solve::SolveStatus::kOptimal);
  const double scored =
      Simulator::score(instance, "offline", offline.allocations)
          .weighted_total;
  EXPECT_NEAR(offline.objective_value, scored,
              2e-3 * (1.0 + std::abs(scored)));
}

// Reproducer: OfflineOptions::pdhg_tolerance (5e-4) does not bound the
// offline objective's error by 5e-4. On the six Fig. 2 taxi hour cases
// (J=8, T=12, power-law demand: the e2ebench fig2-taxi instances) the
// default PDHG objective sits 2.6e-3 (3pm), 2.8e-3 (5pm) and 1.1e-3 (8pm)
// above the interior-point optimum, because its stopping rule never gates
// on the dual residual. Disabled until the offline solve converges (ROADMAP,
// certified competitive ratios).
TEST(Offline, DISABLED_PdhgObjectiveWithinToleranceOnTaxiHours) {
  sim::ScenarioOptions options;
  options.num_users = 8;
  options.num_slots = 12;
  options.workload.distribution = workload::Distribution::kPower;
  OfflineOptions ipm_options;
  ipm_options.solver = OfflineOptions::Solver::kInteriorPoint;
  OfflineOptions pdhg_options;
  pdhg_options.solver = OfflineOptions::Solver::kPdhg;
  for (int hour = 0; hour < 6; ++hour) {
    const Instance instance = sim::make_rome_taxi_instance(options, hour);
    const OfflineResult via_ipm = solve_offline(instance, ipm_options);
    const OfflineResult via_pdhg = solve_offline(instance, pdhg_options);
    ASSERT_EQ(via_ipm.status, solve::SolveStatus::kOptimal) << hour;
    ASSERT_EQ(via_pdhg.status, solve::SolveStatus::kOptimal) << hour;
    EXPECT_LE(std::abs(via_pdhg.objective_value - via_ipm.objective_value),
              pdhg_options.pdhg_tolerance * std::abs(via_ipm.objective_value))
        << "hour case " << hour << ": pdhg " << via_pdhg.objective_value
        << " ipm " << via_ipm.objective_value;
  }
}

TEST(OfflineLp, HasExpectedShape) {
  const Instance instance = small_instance(51, 4, 3);
  const solve::LpProblem lp = build_offline_lp(instance);
  const std::size_t kI = instance.num_clouds;
  const std::size_t kJ = instance.num_users;
  const std::size_t kT = instance.num_slots;
  EXPECT_EQ(lp.num_vars, kT * kI * kJ + kT * kI + kT * kI * kJ);
  EXPECT_EQ(lp.num_rows, kT * (kJ + kI + kI + kI * kJ));
  EXPECT_TRUE(lp.validate().empty());
}

}  // namespace
}  // namespace eca::algo
