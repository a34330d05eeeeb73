// History independence of the P2 solve: every RegularizedSolver solve
// cold-starts, so what a NewtonWorkspace solved before must not leak into
// the next result. Solving slot t of a chained trajectory gives the same
// bits (x, θ, ρ, δ, κ, objective, iteration count) from
//   * a fresh workspace,
//   * the workspace that solved slots 0 … t−1, and
//   * a workspace last used for a problem of a different shape;
// and an OnlineApprox run repeated back to back reproduces its trajectory.
#include <algorithm>
#include <cstddef>

#include <gtest/gtest.h>

#include "algo/online_approx.h"
#include "common/rng.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "solve/regularized_solver.h"

namespace eca::solve {
namespace {

RegularizedProblem make_problem(Rng& rng, std::size_t num_clouds,
                                std::size_t num_users) {
  RegularizedProblem p;
  p.num_clouds = num_clouds;
  p.num_users = num_users;
  p.demand.resize(num_users);
  for (auto& d : p.demand) d = static_cast<double>(rng.uniform_int(1, 5));
  const double total_demand = linalg::sum(p.demand);
  p.capacity.assign(num_clouds,
                    1.3 * total_demand / static_cast<double>(num_clouds));
  p.linear_cost.resize(num_clouds * num_users);
  for (auto& v : p.linear_cost) v = rng.uniform(0.5, 3.0);
  p.recon_price.resize(num_clouds);
  for (auto& v : p.recon_price) v = rng.uniform(0.5, 2.0);
  p.migration_price.resize(num_clouds);
  for (auto& v : p.migration_price) v = rng.uniform(0.5, 2.0);
  p.prev.assign(num_clouds * num_users, 0.0);
  for (std::size_t j = 0; j < num_users; ++j) {
    p.prev[p.index(rng.uniform_index(num_clouds), j)] = p.demand[j];
  }
  return p;
}

void expect_same_bits(const RegularizedSolution& got,
                      const RegularizedSolution& want, const char* which,
                      std::size_t t) {
  ASSERT_EQ(got.status, want.status) << which << ", slot " << t;
  EXPECT_EQ(got.stats.newton_iterations, want.stats.newton_iterations)
      << which << ", slot " << t;
  EXPECT_EQ(got.objective_value, want.objective_value)
      << which << ", slot " << t;
  EXPECT_EQ(got.x, want.x) << which << ", slot " << t;
  EXPECT_EQ(got.theta, want.theta) << which << ", slot " << t;
  EXPECT_EQ(got.rho, want.rho) << which << ", slot " << t;
  EXPECT_EQ(got.delta, want.delta) << which << ", slot " << t;
  EXPECT_EQ(got.kappa, want.kappa) << which << ", slot " << t;
  EXPECT_FALSE(got.stats.warm_started) << which << ", slot " << t;
}

TEST(HistoryIndependence, SlotSolveIgnoresWorkspaceHistory) {
  constexpr std::size_t kSlots = 5;
  Rng rng(31);
  RegularizedProblem p = make_problem(rng, 5, 40);
  Rng other_rng(37);
  const RegularizedProblem other_shape = make_problem(other_rng, 4, 23);

  const RegularizedSolver solver;
  NewtonWorkspace ws_chain;
  Rng walk(77);
  for (std::size_t t = 0; t < kSlots; ++t) {
    const RegularizedSolution chained = solver.solve(p, ws_chain);
    ASSERT_EQ(chained.status, SolveStatus::kOptimal) << "slot " << t;

    NewtonWorkspace ws_fresh;
    expect_same_bits(solver.solve(p, ws_fresh), chained, "fresh workspace",
                     t);

    NewtonWorkspace ws_other;
    ASSERT_EQ(solver.solve(other_shape, ws_other).status,
              SolveStatus::kOptimal);
    expect_same_bits(solver.solve(p, ws_other), chained,
                     "workspace last used for another shape", t);

    // Next slot: the previous optimum becomes prev and the costs move,
    // which is what OnlineApprox::decide feeds P2.
    p.prev = chained.x;
    for (auto& v : p.linear_cost) {
      v = std::max(0.1, v * walk.uniform(0.85, 1.15));
    }
  }
}

TEST(HistoryIndependence, OnlineApproxRunRepeatsBackToBack) {
  sim::ScenarioOptions scenario;
  scenario.num_users = 40;
  scenario.num_slots = 6;
  scenario.seed = 5;
  const model::Instance instance = sim::make_random_walk_instance(scenario);
  algo::OnlineApproxOptions options;
  algo::OnlineApprox algorithm(options);
  const sim::SimulationResult first = sim::Simulator::run(instance, algorithm);
  const sim::SimulationResult second = sim::Simulator::run(instance, algorithm);
  ASSERT_EQ(first.allocations.size(), second.allocations.size());
  for (std::size_t t = 0; t < first.allocations.size(); ++t) {
    EXPECT_EQ(first.allocations[t].x, second.allocations[t].x)
        << "slot " << t;
  }
  EXPECT_EQ(first.weighted_total, second.weighted_total);
}

}  // namespace
}  // namespace eca::solve
